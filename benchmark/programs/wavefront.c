/* A diagonal recurrence flattened to one dimension and carried at
 * distance 32: several processors run whole iterations between waits.
 * k alternates 2 and 0.5 along each chain to keep the values exact. */
int printf(char *fmt, ...);

float a[256], b[256], c[256], k[256];

void wave(int n)
{
	int i;
	for (i = 32; i < n; i++)
		a[i] = a[i-32] * k[i] + b[i] * c[i] + c[i] * 0.5f;
}

int main(void)
{
	int i, j, r, chk;
	for (i = 0; i < 256; i += 64)
		for (j = 0; j < 32; j++) {
			k[i+j] = 2.0f;
			k[i+j+32] = 0.5f;
		}
	for (i = 0; i < 256; i++) {
		a[i] = i & 31;
		b[i] = 2 * (i & 7);
		c[i] = 1.5f;
	}
	for (r = 0; r < 12; r++) wave(256 - 8 * r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 256; i++)
		chk = (chk + (int)(a[i] * 8.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
