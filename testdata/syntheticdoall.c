enum { N = 2048, REPS = 4 }; /* The execution engine's doall. */
float a[N], b[N], c[N];

void doall(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] * 2.0f + c[i] + a[i] * 0.5f;
}

int main(void)
{
	int i, r;
	for (i = 0; i < N; i++) {
		a[i] = 0;
		b[i] = i;
		c[i] = 1;
	}
	for (r = 0; r < REPS; r++) doall(N); /*KERNEL*/
	return 0;
}

/* REPS serial passes over an N-element dependence-free update, each pass
 * a doall loop the compiler spreads across the processors (and vectorizes
 * within each chunk). N is sized far above the strip length so every
 * processor runs many strips per region. */
