/* The saturation loop: one guarded store. If-conversion predicates it
 * and the vectorizer emits a masked strip; the limit falls with each
 * call, so the share of active lanes grows from a quarter to a half. */
int printf(char *fmt, ...);

float in[512], out[512];

void clip(int n, float limit)
{
	int i;
	for (i = 0; i < n; i++)
		if (in[i] > limit)
			out[i] = limit;
}

int main(void)
{
	int i, r, chk;
	for (i = 0; i < 512; i++) {
		in[i] = i * 0.25f;
		out[i] = in[i];
	}
	for (r = 0; r < 12; r++) clip(512, 96.0f - 2.5f * r); /*KERNEL*/
	chk = 0;
	for (i = 0; i < 512; i++)
		chk = (chk + (int)(out[i] * 4.0f)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
