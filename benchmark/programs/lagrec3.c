/* A lag-3 recurrence: the dependence cycle runs through the one
 * statement, so the loop neither vectorizes nor distributes, but three
 * chains pipeline across processors with post/wait (DOACROSS). k holds 2
 * and 0.5 on alternate chain steps, so values stay multiples of 0.25. */
int printf(char *fmt, ...);

float a[192], b[192], c[192], k[192];

void lagrec(int n)
{
	int i;
	for (i = 3; i < n; i++)
		a[i] = a[i-3] * k[i] + b[i] * c[i] + b[i];
}

int main(void)
{
	int i, j, r, chk;
	for (i = 0; i < 192; i += 6)
		for (j = 0; j < 3; j++) {
			k[i+j] = 2.0f;
			k[i+j+3] = 0.5f;
		}
	for (i = 0; i < 192; i++) {
		a[i] = i;
		b[i] = 2 * (i & 7);
		c[i] = 1.25f;
	}
	for (r = 0; r < 12; r++) lagrec(192 - 3 * r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 192; i++)
		chk = (chk + (int)(a[i] * 4.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
