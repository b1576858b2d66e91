/* Paper section 9: daxpy written the C way, with pointer bumps and a
 * count-down loop. Inlining exposes the arrays, while-to-DO conversion
 * and induction-variable substitution make it a vector loop. */
int printf(char *fmt, ...);

float a[512], b[512], c[512];

void daxpy(float *x, float *y, float *z, float alpha, int n)
{
	if (n <= 0)
		return;
	if (alpha == 0)
		return;
	for (; n; n--)
		*x++ = *y++ + alpha * *z++;
}

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		b[i] = i;
		c[i] = 512 - i;
	}
	for (r = 0; r < 12; r++) daxpy(a, b, c, 0.5f, 512); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)(a[i] * 2.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
