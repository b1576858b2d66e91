/* axpy guarded by a nonzero test on a separate mask array: the sparse
 * update pattern. The mask register carries across three memory streams;
 * one lane in four is active. */
int printf(char *fmt, ...);

float x[512], y[512], m[512];

void ssaxpy(int n, float a)
{
	int i;
	for (i = 0; i < n; i++)
		if (m[i] != 0.0f)
			y[i] = y[i] + a * x[i];
}

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		x[i] = i * 0.125f;
		y[i] = 1.0f;
		m[i] = 0.0f;
	}
	for (i = 0; i < 512; i += 4)
		m[i] = 1.0f;
	for (r = 0; r < 12; r++) ssaxpy(512, 2.0f); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)(y[i] * 4.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
