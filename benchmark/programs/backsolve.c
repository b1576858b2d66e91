/* Paper section 6: the back-substitution recurrence. It cannot vectorize;
 * it responds to register promotion and strength reduction. z cycles
 * through 2, 1, 1, 1, 0.5, 1, 1, 1 so the chain's product stays 1 and
 * every value is a multiple of 0.5 that float holds exactly. */
int printf(char *fmt, ...);

float x[512], y[512], z[512];

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
	int i, j, r, v, chk;
	for (i = 0; i < 512; i += 8) {
		for (j = 0; j < 8; j++) {
			x[i+j] = 1.0f;
			y[i+j] = j;
			z[i+j] = 1.0f;
		}
		z[i] = 2.0f;
		z[i+4] = 0.5f;
	}
	for (r = 0; r < 16; r++) backsolve(x, y, z, 512); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++) {
		v = (int)(x[i] * 2.0f);
		if (v < 0)
			v = -v;
		chk = (chk + v) % 65521;
	}
	printf("%d\n", chk);
	return chk % 251;
}
