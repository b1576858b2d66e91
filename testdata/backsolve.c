enum { N = 512 }; /* E1: the section 6 recurrence. */
float x[N], y[N], z[N];

void backsolve(float *xv, float *yv, float *zv, int n)
{
	float *p, *q;
	int i;
	p = &xv[1];
	q = &xv[0];
	for (i = 0; i < n-2; i++)
		p[i] = zv[i] * (yv[i] - q[i]);
}

int main(void)
{
	int i;
	for (i = 0; i < N; i++) {
		x[i] = 1.0f;
		y[i] = i;
		z[i] = 0.5f;
	}
	backsolve(x, y, z, N); /*KERNEL*/
	return 0;
}

/* The paper's section 6 example: x[i+1] depends on x[i], so the loop
 * cannot run in vector, but the dependence graph drives register
 * promotion, pointer strength reduction and int/FP overlap.
 *   go run ./cmd/titancc -run -table testdata/backsolve.c
 *   go run ./cmd/titancc -noalias -S testdata/backsolve.c */
