enum { N = 512 }; /* E2: the section 9 program. */
float a[N], b[N], c[N];

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
	int i;
	for (i = 0; i < N; i++) {
		b[i] = i;
		c[i] = 1;
	}
	daxpy(a, b, c, 1.0, N); /*KERNEL*/
	return 0;
}

/* Section 9's daxpy, written the C way with pointer bumps and a
 * count-down loop: inlining exposes the arrays, while-to-DO conversion and
 * induction-variable substitution make it a vector loop.
 *   go run ./cmd/titancc -run -table testdata/daxpy.c */
