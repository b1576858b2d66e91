/* Arrays embedded in structures (the paper's graphics case, section 10):
 * a 4x4 transform applied to a vertex list, into a second list and back.
 * The matrix is a scaled rotation of the coordinates whose scale factors
 * multiply to 1, so repeated application stays exact (the rest of the
 * matrix is zero, like any C global). */
int printf(char *fmt, ...);

struct xform { float m[4][4]; };
struct vertex { float p[4]; };

struct xform world;
struct vertex verts[64], moved[64];

void transform(struct xform *t, struct vertex *v, struct vertex *o, int n)
{
	int k, i, j;
	for (k = 0; k < n; k++)
		for (i = 0; i < 4; i++) {
			float s;
			s = 0;
			for (j = 0; j < 4; j++)
				s = s + t->m[i][j] * v[k].p[j];
			o[k].p[i] = s;
		}
	for (k = 0; k < n; k++)
		for (i = 0; i < 4; i++)
			v[k].p[i] = o[k].p[i];
}

int main(void)
{
	int i, k, r, chk;
	world.m[0][1] = 1.0f;
	world.m[1][2] = 2.0f;
	world.m[2][3] = 0.5f;
	world.m[3][0] = 1.0f;
	for (k = 0; k < 64; k++)
		for (i = 0; i < 4; i++)
			verts[k].p[i] = k + 2 * i;
	for (r = 0; r < 4; r++) transform(&world, verts, moved, 64); /*KERNEL*/
	chk = 0;
	for (k = 0; k < 64; k++)
		for (i = 0; i < 4; i++)
			chk = (chk + (int)(verts[k].p[i] * 2.0f) * (i + 1)) % 65521;
	printf("%d\n", chk);
	return chk % 251;
}
