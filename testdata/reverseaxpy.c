enum { N = 512 }; /* E4: section 5.3's Fortran-style auxiliary induction variable. */
float a[N], b[N];

void raxpy(int n)
{
	int i, iv;
	iv = n - 1;
	for (i = 0; i < n; i++) {
		a[iv] = a[iv] + b[i];
		iv = iv - 1;
	}
}

int main(void)
{
	int i;
	for (i = 0; i < N; i++) {
		a[i] = 1;
		b[i] = i;
	}
	raxpy(N); /*KERNEL*/
	return 0;
}
