enum { N = 512 }; /* E3: section 5.3's pointer copy. */
float dst[N], src[N];

void copyloop(float *a, float *b, int n)
{
	while (n) {
		*a++ = *b++;
		n--;
	}
}

int main(void)
{
	int i;
	for (i = 0; i < N; i++) src[i] = i;
	copyloop(dst, src, N); /*KERNEL*/
	return 0;
}

/* Watch the induction-variable substitution with
 *   go run ./cmd/titancc -dump-after=all testdata/copyloop.c */
