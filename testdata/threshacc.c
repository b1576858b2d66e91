enum { N = 512 }; /* Masked: a guarded read-modify-write. */
float in[N], acc[N];

void thresh(int n, float t)
{
	int i;
	for (i = 0; i < n; i++)
		if (in[i] > t)
			acc[i] = acc[i] + in[i];
}

int main(void)
{
	int i, chk;
	for (i = 0; i < N; i++) {
		in[i] = (i % 7) * 0.5f;
		acc[i] = 1.0f;
	}
	thresh(N, 1.5f); /*KERNEL*/
	chk = 0;
	for (i = 0; i < N; i++)
		if (acc[i] > 2.0f)
			chk = chk + 1;
	return chk % 251;
}

/* Both the load and the store on acc[] must be governed by the mask (an
 * inactive lane must neither fault nor write), so it exercises masked
 * loads, masked adds, and the masked store in one statement. */
