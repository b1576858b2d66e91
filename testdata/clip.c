enum { N = 512 }; /* Masked: the classic saturation loop. */
float in[N], out[N];

void clip(int n, float limit)
{
	int i;
	for (i = 0; i < n; i++)
		if (in[i] > limit)
			out[i] = limit;
}

int main(void)
{
	int i, chk;
	for (i = 0; i < N; i++) {
		in[i] = i * 0.25f;
		out[i] = in[i];
	}
	clip(N, N / 8); /*KERNEL*/
	chk = 0;
	for (i = 0; i < N; i++)
		if (out[i] < in[i])
			chk = chk + 1;
	return chk % 251;
}

/* The guarded store is the only statement, so if-conversion turns the
 * whole body into one predicated assignment and the vectorizer emits a
 * single masked strip. With inputs ramping past the limit, roughly half
 * the lanes are active: the mask utilization the stats layer reports
 * should sit near 0.5. */
