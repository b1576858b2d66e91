package repro_test

// The Titan's behaviour frozen in one file. For every program of the
// golden's corpus — the corpus kernels (testdata/*.c) and
// benchmark/programs/*.c by path, the workloads of
// engine_differential_test.go and bench.ManyProcs — compiled at
// ScalarOptions and FullOptions, testdata/titan.golden.json holds the
// SHA-256 of the name-sorted disassembly (Instr.String and the list
// scheduler's orders) and, at 1, 2, 3 and 4 processors on both engines, the
// whole titan.Result with Output
// hashed (every instruction's timing, FLOP class and mask accounting).
// Every reference run at p>1 is also made in the reversed region order,
// which must report the same Result apart from exit code and output: host
// order never moves simulated time. It was generated at the commit before the opcode table replaced the
// per-consumer copies of those facts; a change that means to move one of
// them regenerates it and says so:
//
//	UPDATE_GOLDEN=1 go test -run TestTitanGolden .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/driver"
	"repro/internal/titan"
)

const titanGoldenPath = "testdata/titan.golden.json"

// titanGoldenBuild is one program at one option set: its code, and what
// running it reports keyed "p<processors>/<run|ref>".
type titanGoldenBuild struct {
	AsmSHA256 string
	Runs      map[string]titan.Result
}

// The file is one flat object, a line per fact, so a drift shows up as the
// lines that moved: "<program>/<options>/asm" is the disassembly's hash,
// "<program>/<options>/p<n>/<engine>" a Result.
func (b titanGoldenBuild) lines(prefix string) map[string]any {
	out := map[string]any{prefix + "/asm": b.AsmSHA256}
	for key, r := range b.Runs {
		out[prefix+"/"+key] = r
	}
	return out
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// titanGoldenCorpus maps a stable name to C source.
func titanGoldenCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{}
	paths, err := filepath.Glob("benchmark/programs/*.c")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no programs match benchmark/programs/*.c (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		corpus[filepath.ToSlash(p)] = string(src)
	}
	for _, w := range corpusFiles() {
		corpus[w.Name] = w.Src
	}
	for _, w := range append(eseriesWorkloads(), bench.Suite(repro.Engine)...) {
		corpus["workload/"+w.Name] = w.Src
	}
	corpus["workload/manyprocs"] = bench.ManyProcs().Src
	return corpus
}

func titanGoldenMeasure(src string, opts driver.Options) (titanGoldenBuild, error) {
	res, err := driver.Compile(src, opts)
	if err != nil {
		return titanGoldenBuild{}, err
	}
	b := titanGoldenBuild{AsmSHA256: sha256Hex(driver.Disassemble(res)), Runs: map[string]titan.Result{}}
	for _, procs := range []int{1, 2, 3, 4} {
		for _, engine := range []string{"run", "ref"} {
			m := titan.NewMachine(res.Machine, procs)
			run := m.Run
			if engine == "ref" {
				run = m.RunReference
			}
			r, err := run("main")
			m.Release()
			if err != nil {
				return titanGoldenBuild{}, fmt.Errorf("p=%d %s: %v", procs, engine, err)
			}
			if engine == "ref" && procs > 1 {
				m := titan.NewMachine(res.Machine, procs)
				m.ReverseRegions = true
				rev, err := m.RunReference("main")
				m.Release()
				if err != nil {
					return titanGoldenBuild{}, fmt.Errorf("p=%d reversed ref: %v", procs, err)
				}
				rev.ExitCode, rev.Output = r.ExitCode, r.Output
				if rev != r {
					return titanGoldenBuild{}, fmt.Errorf("p=%d: the reversed region order moved the run:\n ascending  %+v\n descending %+v", procs, r, rev)
				}
			}
			r.Output = sha256Hex(r.Output)
			b.Runs[fmt.Sprintf("p%d/%s", procs, engine)] = r
		}
	}
	return b, nil
}

func TestTitanGolden(t *testing.T) {
	corpus := titanGoldenCorpus(t)
	options := map[string]driver.Options{"scalar": driver.ScalarOptions(), "full": driver.FullOptions()}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		all := map[string]any{}
		for name, src := range corpus {
			for oname, opts := range options {
				b, err := titanGoldenMeasure(src, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, oname, err)
				}
				for k, v := range b.lines(name + "/" + oname) {
					all[k] = v
				}
			}
		}
		keys := make([]string, 0, len(all))
		for k := range all {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("{\n")
		for i, k := range keys {
			v, err := json.Marshal(all[k])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%q: %s", k, v)
			if i < len(keys)-1 {
				sb.WriteByte(',')
			}
			sb.WriteByte('\n')
		}
		sb.WriteString("}\n")
		if err := os.WriteFile(titanGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	blob, err := os.ReadFile(titanGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	// 1 hash + 4 processor counts x 2 engines per build.
	if n := len(corpus) * len(options) * 9; len(want) != n {
		t.Errorf("golden holds %d facts, the corpus has %d", len(want), n)
	}
	// A corpus kernel at its table size is also an E-series or engine
	// workload: the two names share one measurement.
	measure := map[string]func() (titanGoldenBuild, error){}
	for name, src := range corpus {
		for oname, opts := range options {
			name, src, oname, opts := name, src, oname, opts
			key := oname + "\x00" + src
			if measure[key] == nil {
				measure[key] = sync.OnceValues(func() (titanGoldenBuild, error) { return titanGoldenMeasure(src, opts) })
			}
			measured := measure[key]
			t.Run(name+"/"+oname, func(t *testing.T) {
				t.Parallel()
				got, err := measured()
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range got.lines(name + "/" + oname) {
					g, err := json.Marshal(v)
					if err != nil {
						t.Fatal(err)
					}
					if w, ok := want[k]; !ok {
						t.Errorf("%s: not in the golden", k)
					} else if string(g) != string(w) {
						t.Errorf("%s:\n got    %s\n golden %s", k, g, w)
					}
				}
			})
		}
	}
}
