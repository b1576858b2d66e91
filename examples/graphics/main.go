// A Doré-style graphics workload (§10): 4x4 transform matrices embedded in
// structures, applied to a strip of vertices. The paper calls out two
// lessons this exercises: arrays embedded within structures must be
// analyzable (their §10 post-mortem), and constant 4-element loops must
// vectorize without strip-loop overhead (§5.2).
package main

import (
	"fmt"
	"log"

	"repro/internal/driver"
)

const program = `
int printf(char *fmt, ...);

struct xform {
	float m[4][4];
	int flags;
};

struct vertex {
	float p[4];
};

struct xform world;
struct vertex verts[512];

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
	/* scale-by-2 transform */
	for (i = 0; i < 4; i++) {
		int j;
		for (j = 0; j < 4; j++)
			world.m[i][j] = 0;
		world.m[i][i] = 2.0f;
	}
	for (k = 0; k < 512; k++)
		for (i = 0; i < 4; i++)
			verts[k].p[i] = k + i;

	transform(&world, verts, 512);

	printf("v[0] = (%g %g %g %g)\n",
		verts[0].p[0], verts[0].p[1], verts[0].p[2], verts[0].p[3]);
	printf("v[511] = (%g %g %g %g)\n",
		verts[511].p[0], verts[511].p[1], verts[511].p[2], verts[511].p[3]);
	return 0;
}
`

// soaProgram is the same transform with the vertices transposed into a
// structure of arrays, the layout a vectorizing compiler wants: each
// component update becomes a long vector over the vertex strip instead of
// a 4-element vector per vertex.
const soaProgram = `
int printf(char *fmt, ...);

float m00, m11, m22, m33; /* scale transform diagonal */
float px[512], py[512], pz[512], pw[512];

int main(void)
{
	int k;
	m00 = 2.0f; m11 = 2.0f; m22 = 2.0f; m33 = 2.0f;
	for (k = 0; k < 512; k++) {
		px[k] = k;
		py[k] = k + 1;
		pz[k] = k + 2;
		pw[k] = k + 3;
	}
	for (k = 0; k < 512; k++) px[k] = m00 * px[k];
	for (k = 0; k < 512; k++) py[k] = m11 * py[k];
	for (k = 0; k < 512; k++) pz[k] = m22 * pz[k];
	for (k = 0; k < 512; k++) pw[k] = m33 * pw[k];
	printf("v[511] = (%g %g %g %g)\n", px[511], py[511], pz[511], pw[511]);
	return 0;
}
`

func run(src string, opts driver.Options, procs int) (cycles int64, out string) {
	r, err := driver.Run(src, opts, procs)
	if err != nil {
		log.Fatal(err)
	}
	return r.Cycles, r.Output
}

func main() {
	res, err := driver.Compile(program, driver.FullOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AoS transform: %d vector statements (4-wide rows, no strip loops)\n",
		res.Report.Vector.VectorStmts)

	aosFull, out := run(program, driver.FullOptions(), 1)
	aosScalar, _ := run(program, driver.ScalarOptions(), 1)
	fmt.Print(out)
	fmt.Printf("AoS: scalar %d cycles, optimized %d cycles (%.2fx)\n",
		aosScalar, aosFull, float64(aosScalar)/float64(aosFull))
	fmt.Println("  (4-element vectors barely pay for their startup — the §10 lesson:")
	fmt.Println("   arrays in structs must be *analyzable*, but short rows win little)")

	soaFull, out2 := run(soaProgram, driver.FullOptions(), 2)
	soaScalar, _ := run(soaProgram, driver.ScalarOptions(), 1)
	fmt.Print(out2)
	fmt.Printf("SoA: scalar %d cycles, optimized(P=2) %d cycles (%.2fx)\n",
		soaScalar, soaFull, float64(soaScalar)/float64(soaFull))
	fmt.Println("  (the same math over transposed data vectorizes across the vertex strip)")
}
