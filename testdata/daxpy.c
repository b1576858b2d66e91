/* The paper's section 9 program: compile with
 *   go run ./cmd/titancc -run -table testdata/daxpy.c
 * to reproduce the inlining -> vectorization -> parallelization chain. */
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
	float a[100], b[100], c[100];
	int i;
	for (i = 0; i < 100; i++) {
		b[i] = i;
		c[i] = 1;
	}
	daxpy(a, b, c, 1.0, 100);
	return 0;
}
