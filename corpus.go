package repro

import (
	"embed"
	"fmt"
	"strings"
)

// corpusFiles is the corpus, the paper's kernels as one directory of C
// files, testdata/*.c: backsolve (§6), daxpy (§9), the §5.3 copy and
// auxiliary-induction loops, vector add, the §10 arrays embedded in
// structures, the three DOACROSS recurrences, the three masked kernels
// and the execution engine's doall. Each file is a whole program that
// titancc compiles as it stands (go run ./cmd/titancc -run
// testdata/daxpy.c).
//
// A file declares its size on line 1 as `enum { N = … };` (the front end
// has no preprocessor), and Source rewrites that number. The rest of
// line 1 and the end of the file hold the comments, so every loop keeps
// its line and column at every size. The measured call in main carries
// the marker /*KERNEL*/ (see internal/bench).
//
//go:embed testdata/*.c
var corpusFiles embed.FS

// Kernel is one row of the corpus table: the program in testdata/Name.c,
// the suite it belongs to, the size its line 1 declares, and the smaller
// size the differential tests and the tuner's goldens compile it at.
type Kernel struct {
	Name        string
	Suite       string
	Size, Small int
}

// The suites: the §9 evaluation programs, the DOACROSS recurrences, the
// masked (if-converted) loops, and the execution engine's doall.
const (
	ESeries  = "E"
	Doacross = "doacross"
	Masked   = "masked"
	Engine   = "engine"
)

// Corpus is the table of testdata/*.c, a row per file. A new kernel is
// one file plus one row.
var Corpus = []Kernel{
	{"backsolve", ESeries, 512, 256},
	{"daxpy", ESeries, 512, 256},
	{"copyloop", ESeries, 512, 256},
	{"reverseaxpy", ESeries, 512, 256},
	{"vectoradd", ESeries, 512, 256},
	{"transform4x4", ESeries, 64, 16},
	{"lagrec3", Doacross, 256, 256},
	{"smooth8", Doacross, 256, 256},
	{"wavefront", Doacross, 256, 64},
	{"clip", Masked, 512, 256},
	{"threshacc", Masked, 512, 256},
	{"sparsesaxpy", Masked, 512, 256},
	{"syntheticdoall", Engine, 2048, 256},
}

// Source returns the named kernel's program with N = n. It panics when
// the table has no such kernel or its file does not begin by declaring
// the table's size, which TestCorpusTable rules out.
func Source(name string, n int) string {
	for _, k := range Corpus {
		if k.Name != name {
			continue
		}
		src, err := corpusFiles.ReadFile("testdata/" + name + ".c")
		if err != nil {
			panic(err)
		}
		head := fmt.Sprintf("enum { N = %d", k.Size)
		if !strings.HasPrefix(string(src), head) {
			panic(fmt.Sprintf("testdata/%s.c does not begin %q", name, head))
		}
		return fmt.Sprintf("enum { N = %d", n) + string(src[len(head):])
	}
	panic("no corpus kernel " + name)
}
