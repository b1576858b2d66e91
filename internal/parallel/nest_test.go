package parallel

import (
	"testing"

	"repro/internal/depend"
	"repro/internal/il"
)

func parNestCount(body []il.Stmt) int {
	n := 0
	il.WalkStmts(body, func(s il.Stmt) bool {
		if _, ok := s.(*il.DoParallel); ok {
			n++
		}
		return true
	})
	return n
}

func TestNestMatrixScaleParallelizes(t *testing.T) {
	// Row-major 64x64: outer stride 256 bytes clears the inner sweep of
	// 4*63+3 bytes.
	src := `
float a[64][64], b[64][64];
void f(void) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			a[i][j] = b[i][j] * 2.0f + 1.0f;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	st := ParallelizeNests(p, depend.Options{}, nil)
	if st.NestsParallelized != 1 {
		t.Fatalf("nests: %d\n%s", st.NestsParallelized, p)
	}
	if parNestCount(p.Body) != 1 {
		t.Errorf("no DoParallel:\n%s", p)
	}
	// The inner loop must remain a serial DoLoop inside (vectorizer's
	// job comes later).
	var par *il.DoParallel
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if d, ok := s.(*il.DoParallel); ok {
			par = d
		}
		return true
	})
	inner := 0
	for _, s := range par.Body {
		if _, ok := s.(*il.DoLoop); ok {
			inner++
		}
	}
	if inner != 1 {
		t.Errorf("inner loop missing:\n%s", p)
	}
}

func TestNestRowOverlapStaysSerial(t *testing.T) {
	// Inner sweep of 128 elements over rows of 64: rows overlap, outer
	// iterations conflict.
	src := `
float a[64][64];
void f(void) {
	int i, j;
	for (i = 0; i < 32; i++)
		for (j = 0; j < 128; j++)
			a[0][i * 64 + j] = 1.0f;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 0 {
		t.Fatalf("overlapping nest parallelized:\n%s", p)
	}
}

func TestNestTransposedAccessStaysSerial(t *testing.T) {
	// a[j][i]: outer stride 4 does not clear the inner sweep of 256*(n-1).
	src := `
float a[64][64];
void f(void) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			a[j][i] = 1.0f;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 0 {
		t.Fatalf("column-major store parallelized:\n%s", p)
	}
}

func TestNestReductionStaysSerial(t *testing.T) {
	src := `
float a[64][64];
float total;
void f(void) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			total = total + a[i][j];
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 0 {
		t.Fatalf("reduction nest parallelized:\n%s", p)
	}
}

func TestNestRuntimeInnerBoundStaysSerial(t *testing.T) {
	// Runtime inner bound: the sweep is unbounded, could cross rows.
	src := `
float a[64][64];
void f(int n) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < n; j++)
			a[i][j] = 1.0f;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 0 {
		t.Fatalf("runtime-bound nest parallelized:\n%s", p)
	}
}

func TestNestDistinctArraysParallelize(t *testing.T) {
	// Writes go to a, reads from b: distinct objects, any shapes.
	src := `
float a[32][32], b[32][32];
void f(void) {
	int i, j;
	for (i = 0; i < 32; i++)
		for (j = 0; j < 32; j++)
			a[i][j] = b[j][i];
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 1 {
		t.Fatalf("transpose-copy nest not parallelized:\n%s", p)
	}
}

func TestNestSinglePointerBaseParallelizes(t *testing.T) {
	// All references share one pointer base: disjointness across outer
	// iterations is pure geometry, independent of where the pointer
	// points.
	src := `
void f(float *a) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			a[i * 64 + j] = 1.0f;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 1 {
		t.Fatalf("single-pointer nest not parallelized:\n%s", p)
	}
}

func TestNestTwoPointersStaySerial(t *testing.T) {
	// Distinct pointer parameters may alias (§1): the write through a
	// conflicts with the read through b.
	src := `
void f(float *a, float *b) {
	int i, j;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			a[i * 64 + j] = b[i * 64 + j] + 1.0f;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 0 {
		t.Fatalf("aliasing pointer nest parallelized:\n%s", p)
	}
}

func TestNestOuterCarriedScalarStaysSerial(t *testing.T) {
	// A local scalar accumulated across outer iterations is a reduction:
	// parallelizing it would race.
	src := `
float a[64][64];
float f(void) {
	int i, j;
	float acc;
	acc = 0;
	for (i = 0; i < 64; i++)
		for (j = 0; j < 64; j++)
			acc = acc + a[i][j];
	return acc;
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 0 {
		t.Fatalf("outer-carried scalar reduction parallelized:\n%s", p)
	}
}

func TestNestPerIterationScalarOK(t *testing.T) {
	// A scalar reset at the top of each outer iteration is private.
	src := `
float a[64][64], rowsum[64][1];
void f(void) {
	int i, j;
	float s;
	for (i = 0; i < 64; i++) {
		s = 0;
		for (j = 0; j < 64; j++)
			s = s + a[i][j];
		rowsum[i][0] = s;
	}
}
`
	prog := compileProg(t, src)
	p := prog.Proc("f")
	if st := ParallelizeNests(p, depend.Options{}, nil); st.NestsParallelized != 1 {
		t.Fatalf("row-sum nest not parallelized:\n%s", p)
	}
}
