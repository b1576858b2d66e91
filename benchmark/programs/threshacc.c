/* A guarded read-modify-write: both the load and the store of acc[] sit
 * under the mask, so an inactive lane must neither fault nor write. */
int printf(char *fmt, ...);

float in[512], acc[512];

void thresh(int n, float t)
{
	int i;
	for (i = 0; i < n; i++)
		if (in[i] > t)
			acc[i] = acc[i] + in[i];
}

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		in[i] = (i & 7) * 0.5f;
		acc[i] = 1.0f;
	}
	for (r = 0; r < 12; r++) thresh(512, 0.25f * r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)(acc[i] * 2.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
