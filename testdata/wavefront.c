enum { N = 256 }; /* DOACROSS: a diagonal recurrence carried at distance 32. */
float a[N], b[N], c[N];

void wave(int n)
{
	int i;
	for (i = 32; i < n; i++)
		a[i] = a[i-32] * 0.9f + b[i] * c[i] + c[i] * 0.5f;
}

int main(void)
{
	int i, chk;
	for (i = 0; i < N; i++) {
		a[i] = i * 0.01f;
		b[i] = 0.5f;
		c[i] = 1.25f;
	}
	wave(N); /*KERNEL*/
	chk = 0;
	for (i = 0; i < N; i++)
		if (a[i] > b[i])
			chk = chk + 1;
	return chk % 251;
}

/* A diagonal recurrence flattened to one dimension, carried at distance
 * 32: far enough that several processors run whole iterations between
 * waits and the tuner can legally coalesce posting (distance >= stride *
 * width). */
