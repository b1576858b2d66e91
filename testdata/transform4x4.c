enum { N = 64 }; /* E10: arrays embedded in structures (section 10, graphics). */
struct xform { float m[4][4]; };
struct vertex { float p[4]; };

struct xform world;
struct vertex verts[N];

void transform(struct xform *t, struct vertex *v, int n)
{
	int k, i, j;
	float out[4];
	for (k = 0; k < n; k++) {
		for (i = 0; i < 4; i++) {
			float s;
			s = 0;
			for (j = 0; j < 4; j++)
				s = s + t->m[i][j] * v[k].p[j];
			out[i] = s;
		}
		for (i = 0; i < 4; i++)
			v[k].p[i] = out[i];
	}
}

int main(void)
{
	int i, k;
	for (i = 0; i < 4; i++) {
		int j;
		for (j = 0; j < 4; j++)
			world.m[i][j] = 0;
		world.m[i][i] = 2.0f;
	}
	for (k = 0; k < N; k++)
		for (i = 0; i < 4; i++)
			verts[k].p[i] = k + i;
	transform(&world, verts, N); /*KERNEL*/
	return 0;
}
