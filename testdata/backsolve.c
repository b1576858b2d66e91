/* The paper's section 6 example: a recurrence that cannot vectorize but
 * responds to dependence-driven register promotion and strength reduction.
 *   go run ./cmd/titancc -run -table testdata/backsolve.c
 *   go run ./cmd/titancc -noalias -S testdata/backsolve.c       */
float x[2048], y[2048], z[2048];

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
	for (i = 0; i < 2048; i++) {
		x[i] = 1.0f;
		y[i] = i;
		z[i] = 0.5f;
	}
	backsolve(x, y, z, 2048);
	return 0;
}
