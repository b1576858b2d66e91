package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The seeded generator writes C translation units in the compiler's
// subset together with the checksum a correct compilation must print.
// A unit is a set of procedures over shared global arrays; every
// procedure is an instance of one shape below with seeded coefficients.
//
// Exactness is structural: procedures read only b and c, which main
// fills with small integers and nothing ever writes; coefficients are
// multiples of 0.5; recurrences add along their chain. Every value is
// therefore a small multiple of 0.25 that a float holds exactly, so the
// expected checksum comes from the Go closures built beside the C text.
//
// The shape mix of a unit is fixed by its spec (shapes are dealt
// round-robin from a seeded permutation), so two seeds give units of the
// same compile cost that differ in order, coefficients, thresholds and
// recurrence distances.

type shape int

const (
	shapeChain   shape = iota // vectorizable loops over multiply-add chains
	shapeWhile                // count-down while loops (section 5.2 while-to-DO)
	shapeNest                 // 2-level independent nests (outer parallel, inner vector)
	shapeGuard                // guarded stores (if-conversion, masked strips)
	shapeRecur                // constant-distance recurrences (DOACROSS, strength reduction)
	shapeCallee               // loops calling a small inlinable function (section 7)
	shapePointer              // pointer-bump copy in a callee (section 5.3)
	shapeInt                  // integer accumulation and foldable scalar code (section 8)
)

var allShapes = []shape{shapeChain, shapeWhile, shapeNest, shapeGuard, shapeRecur, shapeCallee, shapePointer, shapeInt}

// dim is the side of the two-dimensional array m.
const dim = 16

// unitSpec sizes a generated unit.
type unitSpec struct {
	procs  int     // procedures in the unit
	calls  int     // main calls the first calls procedures, which have one loop each
	loops  int     // loop statements in each other procedure: text size and compile cost
	n      int     // length of the one-dimensional arrays, at least dim*dim
	reps   int     // times main runs its calls
	shapes []shape // shapes to deal from, in a seeded order
	dist   int     // recurrence distance; 0 draws it from the seed
}

// unit is one generated translation unit and its independent expectation.
type unit struct {
	src  string
	want expectation
}

// state mirrors the unit's globals.
type state struct {
	a, b, c, d []float32
	m          [dim][dim]float32
	g          []int
}

// proc is one generated procedure: its C text and the same arithmetic in Go.
type proc struct {
	text  string
	apply func(*state)
}

func coef(rng *rand.Rand) float32 { return float32(1+rng.Intn(6)) / 2 }

func lit(v float32) string { return strconv.FormatFloat(float64(v), 'f', 1, 32) + "f" }

// genUnit draws one unit. id makes the text unique, so two units never
// share a cache key even if every draw coincides.
func genUnit(rng *rand.Rand, spec unitSpec, id string) unit {
	order := rng.Perm(len(spec.shapes))
	procs := make([]proc, spec.procs)
	for p := range procs {
		loops := spec.loops
		if p < spec.calls {
			loops = 1
		}
		procs[p] = genProc(rng, loops, spec.dist, spec.shapes[order[p%len(order)]], p)
	}
	called := rng.Perm(spec.calls)

	bOff, cMul := 1+rng.Intn(2), 1+rng.Intn(3)

	// main stays small on purpose. Every call below is inlined into it,
	// codegen gives a procedure 32 integer registers without reuse, and a
	// loop whose induction variable misses out fails the compile. So main
	// calls at most two one-loop procedures (the rest of the unit is
	// compiled and never run), has one initialisation loop and one
	// checksum loop over the first dim*dim elements (plus a tail when the
	// arrays are longer), and sums g without a loop. a, d and m start at
	// zero like any C global.
	var sb strings.Builder
	fmt.Fprintf(&sb, "/* unit %s */\nint printf(char *fmt, ...);\n\n", id)
	fmt.Fprintf(&sb, "float a[%d], b[%d], c[%d], d[%d];\nfloat m[%d][%d];\nint g[%d];\n",
		spec.n, spec.n, spec.n, spec.n, dim, dim, spec.procs)
	for _, p := range procs {
		sb.WriteString(p.text)
	}
	sb.WriteString("\nint main(void)\n{\n\tint i, r, chk;\n\tfloat *mp;\n")
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++) {\n\t\tb[i] = (i & 15) + %d;\n\t\tc[i] = (i & 3) * %d;\n\t}\n", spec.n, bOff, cMul)
	if spec.reps > 1 {
		fmt.Fprintf(&sb, "\tfor (r = 0; r < %d; r++) {\n", spec.reps)
	}
	for _, p := range called {
		fmt.Fprintf(&sb, "\t\tp%d(%d);\n", p, spec.n)
	}
	if spec.reps > 1 {
		sb.WriteString("\t}\n")
	}
	sb.WriteString("\tchk = 0;\n\tmp = &m[0][0];\n")
	fmt.Fprintf(&sb, "\tfor (i = 0; i < %d; i++)\n\t\tchk = (chk + (int)(a[i] * 4.0f) + (int)(d[i] * 4.0f) * 3 + (int)(mp[i] * 4.0f)) %% %d;\n", dim*dim, checksumMod)
	if spec.n > dim*dim {
		fmt.Fprintf(&sb, "\tfor (i = %d; i < %d; i++)\n\t\tchk = (chk + (int)(a[i] * 4.0f) + (int)(d[i] * 4.0f) * 3) %% %d;\n", dim*dim, spec.n, checksumMod)
	}
	for p := 0; p < spec.procs; p++ {
		fmt.Fprintf(&sb, "\tchk = (chk + g[%d]) %% %d;\n", p, checksumMod)
	}
	sb.WriteString("\tprintf(\"%d\\n\", chk);\n\treturn chk % 251;\n}\n")

	st := &state{a: make([]float32, spec.n), b: make([]float32, spec.n), c: make([]float32, spec.n),
		d: make([]float32, spec.n), g: make([]int, spec.procs)}
	for i := 0; i < spec.n; i++ {
		st.b[i], st.c[i] = float32(i&15+bOff), float32((i&3)*cMul)
	}
	for r := 0; r < spec.reps; r++ {
		for _, p := range called {
			procs[p].apply(st)
		}
	}
	chk := 0
	for i := 0; i < spec.n; i++ {
		chk += int(st.a[i]*4) + int(st.d[i]*4)*3
		if i < dim*dim {
			chk += int(st.m[i/dim][i%dim] * 4)
		}
		chk %= checksumMod
	}
	for _, v := range st.g {
		chk = (chk + v) % checksumMod
	}
	return unit{src: sb.String(), want: checksumExpectation(chk)}
}

// genUnits draws count units from one seed.
func genUnits(seed int64, count int, spec unitSpec, label string) []unit {
	rng := rand.New(rand.NewSource(seed))
	units := make([]unit, count)
	for k := range units {
		units[k] = genUnit(rng, spec, fmt.Sprintf("%s seed %d #%d", label, seed, k))
	}
	return units
}

// dests alternates the two output arrays so successive loops of one
// procedure do not simply overwrite each other.
func dests(st *state, l int) []float32 {
	if l%2 == 0 {
		return st.a
	}
	return st.d
}

func destName(l int) string { return []string{"a", "d"}[l%2] }

// chain draws a multiply-add chain over the two input arrays, indexed by
// the C expressions ib and ic: its text and its value at Go indices (i, j).
// Wide chains are what make use-def and dependence problems large.
func chain(rng *rand.Rand, terms int, ib, ic string) (string, func(st *state, i, j int) float32) {
	ks := make([]float32, terms)
	text := make([]string, terms)
	for t := range ks {
		ks[t] = coef(rng)
		text[t] = fmt.Sprintf("%s * %s", []string{"b[" + ib + "]", "c[" + ic + "]"}[t%2], lit(ks[t]))
	}
	return strings.Join(text, " + "), func(st *state, i, j int) float32 {
		var s float32
		for t, k := range ks {
			if t%2 == 0 {
				s += st.b[i] * k
			} else {
				s += st.c[j] * k
			}
		}
		return s
	}
}

// genProc writes procedure p<idx>(int n) of the given shape with the given
// number of loop statements.
func genProc(rng *rand.Rand, loops, dist int, sh shape, idx int) proc {
	var body, helper strings.Builder
	var steps []func(*state)
	locals := "int i;"
	if sh == shapePointer {
		// Three inlined pointer-bump loops in one procedure exhaust
		// codegen's registers ("parallel loop variable not in a
		// register"); workloads must not fail, so this shape stops at two.
		loops = min(loops, 2)
	}
	for l := 0; l < loops; l++ {
		l, dst := l, destName(l)
		// fill appends the Go side of "for every i: dst[i] = f(i)".
		fill := func(from int, f func(st *state, i int) float32) {
			steps = append(steps, func(st *state) {
				out := dests(st, l)
				for i := from; i < len(out); i++ {
					out[i] = f(st, i)
				}
			})
		}
		switch sh {
		case shapeChain:
			text, val := chain(rng, 10, "i", "i")
			fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\t%s[i] = %s;\n", dst, text)
			fill(0, func(st *state, i int) float32 { return val(st, i, i) })
		case shapeWhile:
			locals = "int t;"
			text, val := chain(rng, 6, "t-1", "t-1")
			fmt.Fprintf(&body, "\tt = n;\n\twhile (t) {\n\t\t%s[t-1] = %s;\n\t\tt--;\n\t}\n", dst, text)
			fill(0, func(st *state, i int) float32 { return val(st, i, i) })
		case shapeNest:
			locals = "int i, j;\n\tfloat s;"
			s0, s1 := 1+rng.Intn(4), rng.Intn(4)
			s := float32(s0*2 + s1)
			text, val := chain(rng, 4, "i", "j")
			fmt.Fprintf(&body, "\ts = %d;\n\ts = s * 2.0f + %d;\n", s0, s1)
			fmt.Fprintf(&body, "\tfor (i = 0; i < %d; i++)\n\t\tfor (j = 0; j < %d; j++)\n\t\t\tm[i][j] = %s + s;\n", dim, dim, text)
			steps = append(steps, func(st *state) {
				for i := range st.m {
					for j := range st.m[i] {
						st.m[i][j] = val(st, i, j) + s
					}
				}
			})
		case shapeGuard:
			t := float32(2 + rng.Intn(12))
			text, val := chain(rng, 4, "i", "i")
			fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\tif (b[i] > %s)\n\t\t\t%s[i] = %s;\n", lit(t), dst, text)
			fill(0, func(st *state, i int) float32 {
				if st.b[i] > t {
					return val(st, i, i)
				}
				return dests(st, l)[i]
			})
		case shapeRecur:
			dist := dist
			if dist == 0 {
				dist = []int{2, 3, 4, 8}[rng.Intn(4)]
			}
			text, val := chain(rng, 4, "i", "i")
			fmt.Fprintf(&body, "\tfor (i = %d; i < n; i++)\n\t\t%s[i] = %s[i-%d] + %s;\n", dist, dst, dst, dist, text)
			fill(dist, func(st *state, i int) float32 { return dests(st, l)[i-dist] + val(st, i, i) })
		case shapeCallee:
			k1, k2, k3 := coef(rng), coef(rng), coef(rng)
			fmt.Fprintf(&helper, "\nfloat h%d_%d(float x, float y)\n{\n\treturn x * %s + y * %s + x * %s;\n}\n", idx, l, lit(k1), lit(k2), lit(k3))
			fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\t%s[i] = h%d_%d(b[i], c[i]) + h%d_%d(c[i], b[i]);\n", dst, idx, l, idx, l)
			h := func(x, y float32) float32 { return x*k1 + y*k2 + x*k3 }
			fill(0, func(st *state, i int) float32 { return h(st.b[i], st.c[i]) + h(st.c[i], st.b[i]) })
		case shapePointer:
			locals = ""
			k, src := coef(rng), []string{"b", "c"}[l%2]
			fmt.Fprintf(&helper, "\nvoid q%d_%d(float *p, float *q, int n)\n{\n\twhile (n) {\n\t\t*p++ = *q++ * %s;\n\t\tn--;\n\t}\n}\n", idx, l, lit(k))
			fmt.Fprintf(&body, "\tq%d_%d(%s, %s, n);\n", idx, l, dst, src)
			fill(0, func(st *state, i int) float32 {
				if src == "c" {
					return st.c[i] * k
				}
				return st.b[i] * k
			})
		case shapeInt:
			locals = "int i, t, u;"
			t0, mask := 1+rng.Intn(9), []int{3, 7, 15}[rng.Intn(3)]
			if l == 0 {
				fmt.Fprintf(&body, "\tt = %d;\n\tt = t * 2 + 1;\n\tu = t - t;\n", t0)
				steps = append(steps, func(st *state) { st.g[idx] = t0*2 + 1 })
			}
			// Not "t = t + f(i)": induction-variable substitution takes
			// that for a linear induction and miscompiles it at -O1.
			fmt.Fprintf(&body, "\tfor (i = 0; i < n; i++)\n\t\tt = (t * 3 + (i & %d)) & 4095;\n", mask)
			steps = append(steps, func(st *state) {
				for i := range st.a {
					st.g[idx] = (st.g[idx]*3 + i&mask) & 4095
				}
			})
			if l == loops-1 {
				fmt.Fprintf(&body, "\tg[%d] = t + u;\n", idx)
			}
		}
	}
	if locals != "" {
		locals = "\t" + locals + "\n"
	}
	text := fmt.Sprintf("%s\nvoid p%d(int n)\n{\n%s%s}\n", helper.String(), idx, locals, body.String())
	return proc{text: text, apply: func(st *state) {
		for _, step := range steps {
			step(st)
		}
	}}
}
