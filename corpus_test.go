package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/lexer"
	"repro/internal/token"
)

// TestCorpusTable holds testdata/*.c and its table to each other: a file per
// row and a row per file, each file beginning with `enum { N = size` for
// its row's size and holding the kernel marker once, and Source at the
// table size returning the file as it stands.
func TestCorpusTable(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.c")
	if err != nil {
		t.Fatal(err)
	}
	var files, rows []string
	for _, p := range paths {
		files = append(files, strings.TrimSuffix(filepath.Base(p), ".c"))
	}
	suites := []string{repro.ESeries, repro.Doacross, repro.Masked, repro.Engine}
	for _, k := range repro.Corpus {
		rows = append(rows, k.Name)
		if !slices.Contains(suites, k.Suite) {
			t.Errorf("%s: unknown suite %q", k.Name, k.Suite)
		}
		src, err := os.ReadFile(filepath.Join("testdata", k.Name+".c"))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := repro.Source(k.Name, k.Size); got != string(src) {
			t.Errorf("%s: Source at the table size %d is not the file", k.Name, k.Size)
		}
		small := repro.Source(k.Name, 7)
		if !strings.HasPrefix(small, "enum { N = 7") || strings.Count(small, "\n") != strings.Count(string(src), "\n") {
			t.Errorf("%s: Source at 7 does not rewrite line 1 alone:\n%s", k.Name, small)
		}
		if n := strings.Count(string(src), bench.KernelMarker); n != 1 {
			t.Errorf("%s: %d kernel markers, want 1", k.Name, n)
		}
	}
	slices.Sort(rows)
	if !slices.Equal(files, rows) {
		t.Errorf("testdata/*.c is %v, the table %v", files, rows)
	}
}

// frozenDrift is, per kernel, whether its program differs from its
// namesake in benchmark/programs, which the benchmark freezes: the
// benchmark's copies repeat the kernel call and print a checksum, and
// transform4x4's is the steered form that writes a second array. A copy
// brought back in line, or a corpus edit, moves an entry here.
var frozenDrift = map[string]string{
	"backsolve":      "differs",
	"daxpy":          "differs",
	"copyloop":       "differs",
	"reverseaxpy":    "differs",
	"vectoradd":      "differs",
	"transform4x4":   "differs",
	"lagrec3":        "differs",
	"smooth8":        "differs",
	"wavefront":      "differs",
	"clip":           "differs",
	"threshacc":      "differs",
	"sparsesaxpy":    "differs",
	"syntheticdoall": "no frozen copy",
}

// frozenSize is the extent of a frozen program's first global array.
var frozenSize = regexp.MustCompile(`(?m)^(?:float|struct \w+) \w+\[(\d+)\]`)

// programTokens is src's token stream without comments and positions,
// with a leading `enum { N = n };` dropped and N read as n, so a corpus
// file and a program that writes its size out compare equal.
func programTokens(t *testing.T, src string) []string {
	t.Helper()
	toks, err := lexer.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	n := ""
	if len(toks) > 6 && toks[0].Text == "enum" && toks[2].Text == "N" {
		n, toks = toks[4].Text, toks[7:]
	}
	var out []string
	for _, tok := range toks {
		text := tok.Text
		if tok.Kind == token.Ident && text == "N" && n != "" {
			text = n
		}
		out = append(out, text)
	}
	return out
}

// TestCorpusDriftFromBenchmark compares every corpus kernel, at the size
// of its namesake in benchmark/programs, with that namesake token by
// token and holds the answer to frozenDrift, so the drift between the
// two copies is listed rather than hidden.
func TestCorpusDriftFromBenchmark(t *testing.T) {
	for _, k := range repro.Corpus {
		got := "no frozen copy"
		frozen, err := os.ReadFile(filepath.Join("benchmark", "programs", k.Name+".c"))
		if err == nil {
			m := frozenSize.FindSubmatch(frozen)
			if m == nil {
				t.Fatalf("benchmark/programs/%s.c: no global array", k.Name)
			}
			size, _ := strconv.Atoi(string(m[1]))
			a, b := programTokens(t, repro.Source(k.Name, size)), programTokens(t, string(frozen))
			got = "differs"
			if slices.Equal(a, b) {
				got = "same"
			}
			t.Logf("%s at N = %d: %d tokens, the frozen copy %d", k.Name, size, len(a), len(b))
		}
		if want := frozenDrift[k.Name]; got != want {
			t.Errorf("%s: %s, frozenDrift says %q", k.Name, got, want)
		}
	}
}

// corpusFiles is every corpus kernel at its table size, named by its
// path: the programs of testdata/*.c as they stand.
func corpusFiles() []bench.Workload {
	var ws []bench.Workload
	for _, w := range bench.Corpus() {
		w.Name = "testdata/" + w.Name + ".c"
		ws = append(ws, w)
	}
	return ws
}
