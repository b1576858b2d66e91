/* Paper section 5.3: a Fortran-style auxiliary induction variable that
 * runs backwards; induction-variable substitution must rewrite iv as a
 * function of i before the loop can vectorize. */
int printf(char *fmt, ...);

float a[512], b[512];

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
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		a[i] = 1;
		b[i] = i;
	}
	for (r = 0; r < 12; r++) raxpy(512 - r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)a[i]) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
