enum { N = 256 }; /* DOACROSS: a lag-3 autoregressive filter. */
float a[N], b[N], c[N];

void lagrec(int n)
{
	int i;
	for (i = 3; i < n; i++)
		a[i] = a[i-3] * 0.5f + b[i] * c[i] + b[i];
}

int main(void)
{
	int i, chk;
	for (i = 0; i < N; i++) {
		a[i] = i * 0.001f;
		b[i] = 0.5f;
		c[i] = 1.25f;
	}
	lagrec(N); /*KERNEL*/
	chk = 0;
	for (i = 0; i < N; i++)
		if (a[i] > c[i])
			chk = chk + 1;
	return chk % 251;
}

/* The dependence cycle runs through the whole (single) statement, so the
 * loop neither vectorizes nor distributes, but at distance 3 three chains
 * pipeline concurrently: the critical path advances three iterations per
 * synchronized handoff. The checksum loop makes the exit code
 * data-dependent, so a miscompiled sync shows up as an output difference,
 * not just a cycle difference. */
