enum { N = 512 }; /* E7's scaling workload. */
float a[N], b[N], c[N];

void vadd(int n)
{
	int i;
	for (i = 0; i < n; i++)
		a[i] = b[i] * 2.0f + c[i];
}

int main(void)
{
	int i;
	for (i = 0; i < N; i++) {
		b[i] = i;
		c[i] = 1;
	}
	vadd(N); /*KERNEL*/
	return 0;
}
