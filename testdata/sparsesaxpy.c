enum { N = 512 }; /* Masked: axpy guarded by a nonzero test on a mask array. */
float x[N], y[N], m[N];

void ssaxpy(int n, float a)
{
	int i;
	for (i = 0; i < n; i++)
		if (m[i] != 0.0f)
			y[i] = y[i] + a * x[i];
}

int main(void)
{
	int i, chk;
	for (i = 0; i < N; i++) {
		x[i] = i * 0.125f;
		y[i] = 1.0f;
		m[i] = (i % 3 == 0) ? 1.0f : 0.0f;
	}
	ssaxpy(N, 2.0f); /*KERNEL*/
	chk = 0;
	for (i = 0; i < N; i++)
		if (y[i] > 1.0f)
			chk = chk + 1;
	return chk % 251;
}

/* The sparse-update pattern masked execution exists for. The guard reads
 * m[], the body reads and writes different arrays, so the mask register
 * carries across three distinct memory streams. */
