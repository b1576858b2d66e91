/* The paper's section 5.3 pointer-copy loop. Watch the induction-variable
 * substitution with:  go run ./cmd/titancc -dump-after=all testdata/copyloop.c */
float dst[1024], src[1024];

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
	for (i = 0; i < 1024; i++) src[i] = i;
	copyloop(dst, src, 1024);
	return 0;
}
