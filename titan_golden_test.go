package repro

// The Titan's behaviour frozen in one file. For every program of the
// corpus — testdata/*.c, benchmark/programs/*.c, the workloads of
// engine_differential_test.go and manyProcsUnit — compiled at
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
	"testing"

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
	for _, pat := range []string{"testdata/*.c", "benchmark/programs/*.c"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no programs match %s (%v)", pat, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			corpus[filepath.ToSlash(p)] = string(src)
		}
	}
	for _, w := range append(eseriesWorkloads(), bench.SyntheticDoall(2048, 4)) {
		corpus["workload/"+w.Name] = w.Src
	}
	corpus["workload/manyprocs"] = manyProcsUnit()
	return corpus
}

// manyProcsUnit is a translation unit shaped like the benchmark's compile
// units, at a size that simulates quickly: 24 procedures of four loops
// each over shared globals, dealt round-robin from six shapes — guarded
// stores, constant-distance recurrences, 2-level nests, multiply-add
// chains, integer recurrences and loops calling an inlinable helper. main
// runs the first two (one loop each, as the benchmark's called procedures
// have); the rest are compiled and scheduled but never called, which is
// what the disassembly hash freezes.
func manyProcsUnit() string {
	const procs, n = 24, 64
	// chain is a multiply-add chain over b and c with coefficients drawn
	// from multiples of 0.5 by position.
	chain := func(p, l, terms int, ib, ic string) string {
		text := make([]string, terms)
		for t := range text {
			k := float64(1+(p*7+l*5+t*3)%6) / 2
			text[t] = fmt.Sprintf("%s * %.1ff", []string{"b[" + ib + "]", "c[" + ic + "]"}[t%2], k)
		}
		return strings.Join(text, " + ")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "int printf(char *fmt, ...);\n\nfloat a[%d], b[%d], c[%d], d[%d];\nfloat m[8][8];\nint g[%d];\n", n, n, n, n, procs)
	for p := 0; p < procs; p++ {
		loops := 4
		if p < 2 {
			loops = 1
		}
		var helper, body strings.Builder
		locals := "int i;"
		for l := 0; l < loops; l++ {
			dst := []string{"a", "d"}[l%2]
			switch p % 6 {
			case 0:
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\tif (b[i] > %d.0f)\n\t\t\t%s[i] = %s;\n", 2+(p+l)%12, dst, chain(p, l, 4, "i", "i"))
			case 1:
				dist := []int{2, 3, 4, 8}[(p+l)%4]
				fmt.Fprintf(&body, "\tfor (i = %d; i < n; i++)\n\t\t%s[i] = %s[i-%d] + %s;\n", dist, dst, dst, dist, chain(p, l, 4, "i", "i"))
			case 2:
				locals = "int i, j;\n\tfloat s;"
				fmt.Fprintf(&body, "\ts = %d;\n\ts = s * 2.0f + %d;\n", 1+l, p%4)
				fmt.Fprintf(&body, "\tfor (i = 0; i < 8; i++)\n\t\tfor (j = 0; j < 8; j++)\n\t\t\tm[i][j] = %s + s;\n", chain(p, l, 4, "i", "j"))
			case 3:
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\t%s[i] = %s;\n", dst, chain(p, l, 10, "i", "i"))
			case 4:
				locals = "int i, t, u;"
				if l == 0 {
					fmt.Fprintf(&body, "\tt = %d;\n\tt = t * 2 + 1;\n\tu = t - t;\n", 1+p%9)
				}
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\tt = (t * 3 + (i & %d)) & 4095;\n", []int{3, 7, 15}[(p+l)%3])
				if l == loops-1 {
					fmt.Fprintf(&body, "\tg[%d] = t + u;\n", p)
				}
			case 5:
				fmt.Fprintf(&helper, "\nfloat h%d_%d(float x, float y)\n{\n\treturn x * %d.5f + y * %d.0f + x * 0.5f;\n}\n", p, l, l, 1+p%3)
				fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\t%s[i] = h%d_%d(b[i], c[i]) + h%d_%d(c[i], b[i]);\n", dst, p, l, p, l)
			}
		}
		fmt.Fprintf(&sb, "%s\nvoid p%d(int n)\n{\n\t%s\n%s}\n", helper.String(), p, locals, body.String())
	}
	sb.WriteString("\nint main(void)\n{\n\tint i, chk;\n\tfloat *mp;\n")
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++) {\n\t\tb[i] = (i & 15) + 1;\n\t\tc[i] = (i & 3) * 2;\n\t}\n", n)
	fmt.Fprintf(&sb, "\tp0(%d);\n\tp1(%d);\n\tchk = 0;\n\tmp = &m[0][0];\n", n, n)
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++)\n\t\tchk = (chk + (int)(a[i] * 4.0f) + (int)(d[i] * 4.0f) * 3 + (int)(mp[i] * 4.0f)) %% 65521;\n", n)
	sb.WriteString("\tprintf(\"%d\\n\", chk);\n\treturn chk % 251;\n}\n")
	return sb.String()
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
	for name, src := range corpus {
		for oname, opts := range options {
			name, src, oname, opts := name, src, oname, opts
			t.Run(name+"/"+oname, func(t *testing.T) {
				t.Parallel()
				got, err := titanGoldenMeasure(src, opts)
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
