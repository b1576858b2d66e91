/* Paper section 5.3: the pointer copy loop. while-to-DO conversion plus
 * induction-variable substitution turn *a++ = *b++ into a vector copy. */
int printf(char *fmt, ...);

float dst[512], src[512];

void copyloop(float *a, float *b, int n)
{
	while (n) {
		*a++ = *b++;
		n--;
	}
}

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 512; i++)
		src[i] = i;
	for (r = 0; r < 20; r++) copyloop(dst, src, 512 - r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)dst[i]) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
