/* The scaling workload: one dependence-free multiply-add per element,
 * vectorized and spread over the processors. */
int printf(char *fmt, ...);

float a[512], b[512], c[512];

void vadd(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] * 2.0f + c[i] + a[i];
}

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		a[i] = 0;
		b[i] = i;
		c[i] = 1;
	}
	for (r = 0; r < 12; r++) vadd(512); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)a[i]) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
