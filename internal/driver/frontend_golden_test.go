package driver

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// frontEndUnits are the shapes whose lowered IL TestFrontEndGolden pins:
// the FuzzFrontEndDiagnostics seeds that exercise several bodies, a K&R
// implicit declaration seen by a later caller, an address taken on a
// global, block-scope type definitions, and statics and string literals
// spread over several functions (the .strN numbering follows source
// order).
var frontEndUnits = map[string]string{
	"seed-error-in-second-body":         "int f(int x) { return x + 1; }\nint g(int y) { return y + ; }\nint h(int z) { return z * ; }\n",
	"seed-goto-and-labels":              "int f(int n) { int s; s = 0;\ntop: if (n <= 0) goto done; s += n; n--; goto top;\ndone: return s; }\nint main(void) { return f(4); }\n",
	"seed-struct-in-body-bails-out":     "int f(int x) { struct p { int v; } q; q.v = x; return q.v; }\nint g(int y) { return f(y) + 1; }\n",
	"seed-three-bodies":                 "float a[16], b[16];\nvoid axpy(float s, int n) { int i; for (i = 0; i < n; i++) a[i] = a[i] + s * b[i]; }\nint count(int n) { int c; c = 0; while (n) { c++; n--; } return c; }\nint main(void) { axpy(2.0f, 16); return count(3); }\n",
	"seed-typedef-after-body-bails-out": "int f(int x) { return x + 1; }\ntypedef int word;\nword g(word y) { return f(y); }\n",
	"seed-unterminated-body":            "int f(int x) { return x; }\nint g(int y) { if (y) { return 1; }\n",
	"implicit-call-then-later-caller": `int f(int x) { return ext(x) + 1; }
int g(int y) { return ext(y, 2); }
int main(void) { return f(1) + g(2); }
`,
	"address-of-global-in-body": `int g, h[8];
int *pick(int k) { if (k) return &g; return &h[2]; }
int main(void) { int *p; p = pick(1); *p = 3; return g; }
`,
	"struct-and-typedef-in-body": `int f(int x)
{
	typedef float real;
	struct pt { real x, y; } a, *pa;
	real s;
	pa = &a;
	pa->x = x;
	a.y = 2;
	s = a.x + pa->y;
	return (int)s;
}
int main(void) { return f(3); }
`,
	"statics-and-strings": `char *tag;
int first(int n) { static int calls; calls = calls + n; tag = "first"; return calls; }
int second(int n) { static int calls; static float acc = 1.5f; acc = acc + n; tag = "second"; tag = "again"; return calls + (int)acc; }
int none(int n) { return n; }
int third(int n) { static int seen[4]; seen[n & 3] = n; tag = "third"; return seen[0]; }
int main(void) { return first(1) + second(2) + none(3) + third(4); }
`,
}

// TestFrontEndGolden pins the front end's output, parse through lower,
// on the units above: the lowered program, or the error for a unit the
// front end rejects. Regenerate after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/driver -run TestFrontEndGolden
func TestFrontEndGolden(t *testing.T) {
	names := make([]string, 0, len(frontEndUnits))
	for name := range frontEndUnits {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "==== %s ====\n", name)
		res, err := LowerWith(frontEndUnits[name], nil)
		if err != nil {
			fmt.Fprintf(&sb, "error: %v\n", err)
			continue
		}
		sb.WriteString(res.IL.String())
	}
	checkGolden(t, "frontend.golden", sb.String())
}
