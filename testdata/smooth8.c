enum { N = 256 }; /* DOACROSS: an order-8 damped smoothing recurrence. */
float a[N], b[N], c[N];

void smooth(int n)
{
	int i;
	for (i = 8; i < n; i++)
		a[i] = (a[i-8] + b[i] * c[i]) * 0.5f;
}

int main(void)
{
	int i, chk;
	for (i = 0; i < N; i++) {
		a[i] = i * 0.01f;
		b[i] = 1.5f;
		c[i] = 0.75f;
	}
	smooth(N); /*KERNEL*/
	chk = 0;
	for (i = 0; i < N; i++)
		if (a[i] > b[i])
			chk = chk + 1;
	return chk % 251;
}

/* The distance covers the machine width, so under round-robin spreading
 * every processor consumes a value it produced itself and codegen's wait
 * elides to program order: DOACROSS becomes sync-free parallelism on a
 * loop a DOALL check must reject. */
