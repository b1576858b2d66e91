/* An order-8 smoothing recurrence: the distance covers the machine
 * width, so under round-robin spreading every processor consumes a value
 * it produced itself and DOACROSS needs no waits. k alternates 0.5 and 2
 * along each chain to keep the values exact. */
int printf(char *fmt, ...);

float a[256], b[256], c[256], k[256];

void smooth(int n)
{
	int i;
	for (i = 8; i < n; i++)
		a[i] = (a[i-8] + b[i] * c[i]) * k[i];
}

int main(void)
{
	int i, j, r, chk;
	for (i = 0; i < 256; i += 16)
		for (j = 0; j < 8; j++) {
			k[i+j] = 0.5f;
			k[i+j+8] = 2.0f;
		}
	for (i = 0; i < 256; i++) {
		a[i] = 4 * (i & 15);
		b[i] = 2 * (i & 3);
		c[i] = 1.5f;
	}
	for (r = 0; r < 12; r++) smooth(256 - 8 * r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 256; i++)
		chk = (chk + (int)(a[i] * 4.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
