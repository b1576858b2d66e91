// Library catalogs (§7): "math libraries can be 'compiled' into databases
// and used as a base for inlining, much as include directories are used as
// a source for header files." This example compiles a small BLAS-like
// library into a catalog, then builds an application against only the
// prototypes — the bodies come from the catalog at inline time, and the
// saxpy loop vectorizes inside the caller.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/driver"
	"repro/internal/inline"
	"repro/internal/titan"
)

const library = `
/* blaslite: level-1 kernels in plain C. */

void saxpy(float *y, float *x, float alpha, int n)
{
	int i;
	for (i = 0; i < n; i++)
		y[i] = y[i] + alpha * x[i];
}

float sdot(float *x, float *y, int n)
{
	int i;
	float s;
	s = 0;
	for (i = 0; i < n; i++)
		s = s + x[i] * y[i];
	return s;
}

void sscale(float *x, float alpha, int n)
{
	int i;
	for (i = 0; i < n; i++)
		x[i] = alpha * x[i];
}
`

const application = `
int printf(char *fmt, ...);

void saxpy(float *y, float *x, float alpha, int n);
float sdot(float *x, float *y, int n);
void sscale(float *x, float alpha, int n);

float u[256], v[256];

int main(void)
{
	int i;
	float d;
	for (i = 0; i < 256; i++) {
		u[i] = 1.0f;
		v[i] = i;
	}
	saxpy(u, v, 0.5f, 256);  /* u = 1 + 0.5*i     */
	sscale(u, 2.0f, 256);    /* u = 2 + i         */
	d = sdot(u, v, 256);     /* sum i*(2+i)       */
	printf("dot = %g\n", d);
	return 0;
}
`

func main() {
	// "Compile" the library into a catalog (what titancc -emit-catalog
	// does).
	var buf bytes.Buffer
	if err := driver.WriteCatalogFromSource(&buf, library); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog size: %d bytes\n", buf.Len())

	cat, err := inline.ReadCatalog(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog procedures: %d\n", len(cat.Procs))

	opts := driver.FullOptions()
	opts.Catalogs = []*inline.Catalog{cat}
	res, err := driver.Compile(application, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inlined calls: %d, vector statements: %d\n",
		res.Report.Inline.CallsExpanded, res.Report.Vector.VectorStmts)

	m := titan.NewMachine(res.Machine, 2)
	r, err := m.Run("main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(r.Output)

	// Contrast with the no-catalog build: the calls stay opaque and
	// nothing vectorizes.
	plain, err := driver.Compile(application+library, driver.Options{OptLevel: 1})
	if err != nil {
		log.Fatal(err)
	}
	mp := titan.NewMachine(plain.Machine, 1)
	rp, err := mp.Run("main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog-inlined: %d cycles; plain calls: %d cycles (%.1fx)\n",
		r.Cycles, rp.Cycles, float64(rp.Cycles)/float64(r.Cycles))
}
