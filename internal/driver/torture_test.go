package driver

// A table-driven "torture" suite: each case is a small C program with a
// known exit code, run under O0, the scalar pipeline, and the full
// pipeline at 1 and 2 processors. The table leans on the constructs the
// paper calls hard about C (§1): pointer idioms, side-effecting
// operators, irregular for loops, small functions, aliasing, volatile.

import (
	"fmt"
	"testing"
)

var tortureCases = []struct {
	name string
	src  string
	want int64
}{
	{"comma-operator", `
int main(void) { int a, b; a = (b = 3, b + 1); return a * 10 + b; }
`, 43},

	{"ternary-chain", `
int grade(int s) { return s > 89 ? 4 : s > 79 ? 3 : s > 69 ? 2 : 0; }
int main(void) { return grade(95) * 100 + grade(85) * 10 + grade(50); }
`, 430},

	{"short-circuit-effects", `
int calls;
int t(void) { calls = calls + 1; return 1; }
int f(void) { calls = calls + 1; return 0; }
int main(void) {
	int r;
	calls = 0;
	r = f() && t();   /* t not called */
	r = r + (t() || f()); /* f not called */
	return calls * 10 + r;
}
`, 21},

	{"pre-vs-post", `
int main(void) {
	int i, a, b;
	i = 5;
	a = i++;
	b = ++i;
	return a * 100 + b * 10 + i;
}
`, 577},

	{"pointer-walk", `
int sum(int *p, int *end) {
	int s;
	s = 0;
	while (p != end)
		s = s + *p++;
	return s;
}
int data[5];
int main(void) {
	int i;
	for (i = 0; i < 5; i++) data[i] = i + 1;
	return sum(data, data + 5);
}
`, 15},

	{"pointer-diff", `
int a[10];
int main(void) {
	int *p, *q;
	p = &a[2];
	q = &a[9];
	return q - p;
}
`, 7},

	{"negative-modulo", `
int main(void) { return (-7 % 3) + 10; }
`, 9},

	{"shift-combine", `
int main(void) {
	int x;
	x = 1;
	x = (x << 8) | 3;
	return (x >> 4) & 0xff;
}
`, 16},

	{"nested-calls", `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int main(void) { return add(mul(3, 4), add(5, mul(2, 10))); }
`, 37},

	{"recursive-gcd", `
int gcd(int a, int b) { if (b == 0) return a; return gcd(b, a % b); }
int main(void) { return gcd(1071, 462); }
`, 21},

	{"mutual-recursion", `
int odd(int);
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main(void) { return even(10) * 10 + odd(10); }
`, 10},

	{"goto-cleanup", `
int main(void) {
	int x;
	x = 0;
	x = x + 1;
	if (x) goto skip;
	x = 99;
skip:
	x = x + 1;
	return x;
}
`, 2},

	{"do-while", `
int main(void) {
	int n, s;
	n = 5;
	s = 0;
	do {
		s = s + n;
		n = n - 1;
	} while (n);
	return s;
}
`, 15},

	{"break-continue", `
int main(void) {
	int i, s;
	s = 0;
	for (i = 0; i < 100; i++) {
		if (i % 2) continue;
		if (i > 10) break;
		s = s + i;
	}
	return s; /* 0+2+4+6+8+10 */
}
`, 30},

	{"switch-fallthrough", `
int main(void) {
	int r, n;
	r = 0;
	for (n = 0; n < 4; n++) {
		switch (n) {
		case 0: r = r + 1;
		case 1: r = r + 10; break;
		case 2: r = r + 100; break;
		default: r = r + 1000;
		}
	}
	return r & 0x7fff; /* 11 + 10 + 100 + 1000 */
}
`, 1121},

	{"struct-copy-semantics", `
struct pair { int a; int b; };
int take(struct pair *p) { p->a = 99; return p->b; }
int main(void) {
	struct pair x;
	x.a = 1;
	x.b = 2;
	take(&x);
	return x.a;
}
`, 99},

	{"array-of-struct", `
struct item { int k; int v; };
struct item tab[4];
int find(int k) {
	int i;
	for (i = 0; i < 4; i++)
		if (tab[i].k == k) return tab[i].v;
	return -1;
}
int main(void) {
	int i;
	for (i = 0; i < 4; i++) { tab[i].k = i * 2; tab[i].v = i * 10; }
	return find(4) * 10 + find(6);
}
`, 230},

	{"matrix-multiply", `
float a[3][3], b[3][3], c[3][3];
int main(void) {
	int i, j, k;
	for (i = 0; i < 3; i++)
		for (j = 0; j < 3; j++) {
			a[i][j] = i + j;
			b[i][j] = (i == j);
		}
	for (i = 0; i < 3; i++)
		for (j = 0; j < 3; j++) {
			float s;
			s = 0;
			for (k = 0; k < 3; k++)
				s = s + a[i][k] * b[k][j];
			c[i][j] = s;
		}
	/* c should equal a */
	for (i = 0; i < 3; i++)
		for (j = 0; j < 3; j++)
			if (c[i][j] != a[i][j]) return 1;
	return 0;
}
`, 0},

	{"aliased-copy-overlap", `
int buf[16];
int main(void) {
	int i;
	for (i = 0; i < 16; i++) buf[i] = i;
	/* overlapping shift by one: must stay serial or handle the
	   dependence correctly */
	for (i = 0; i < 15; i++) buf[i] = buf[i + 1];
	return buf[0] * 100 + buf[14];
}
`, 115},

	{"reverse-in-place", `
int v[9];
int main(void) {
	int i, j, t;
	for (i = 0; i < 9; i++) v[i] = i;
	i = 0;
	j = 8;
	while (i < j) {
		t = v[i];
		v[i] = v[j];
		v[j] = t;
		i++;
		j--;
	}
	return v[0] * 10 + v[8];
}
`, 80},

	{"char-string", `
char s[6];
int mystrlen(char *p) {
	int n;
	n = 0;
	while (*p++) n++;
	return n;
}
int main(void) {
	s[0] = 'h'; s[1] = 'e'; s[2] = 'y'; s[3] = 0;
	return mystrlen(s);
}
`, 3},

	{"sizeof-values", `
struct wide { double d; int i; };
int main(void) {
	/* The Titan model word-aligns doubles (see ctype), so struct wide
	   is 12 bytes, not 16. */
	return sizeof(int) + sizeof(char) * 10 + sizeof(double) * 100
		+ sizeof(struct wide);
}
`, 4 + 10 + 800 + 12},

	{"static-counter", `
int tick(void) { static int n; n = n + 1; return n; }
int main(void) { tick(); tick(); return tick(); }
`, 3},

	{"global-init-values", `
int base = 100;
int scale = 3;
int main(void) { return base + scale; }
`, 103},

	{"float-compare-branches", `
int cls(float x) {
	if (x < 0.0f) return 0;
	if (x == 0.0f) return 1;
	return 2;
}
int main(void) { return cls(-1.5f) * 100 + cls(0.0f) * 10 + cls(3.0f); }
`, 12},

	{"int-float-conversions", `
int main(void) {
	float f;
	int i;
	f = 7;
	i = f / 2.0f;     /* 3.5 -> 3 */
	return i * 10 + (int)(f - 0.5f);
}
`, 36},

	{"triangular-loop", `
int main(void) {
	int i, j, s;
	s = 0;
	for (i = 0; i < 6; i++)
		for (j = 0; j <= i; j++)
			s = s + 1;
	return s; /* 21 */
}
`, 21},

	{"loop-carried-scalar", `
int main(void) {
	int i, fib0, fib1, t;
	fib0 = 0;
	fib1 = 1;
	for (i = 0; i < 10; i++) {
		t = fib0 + fib1;
		fib0 = fib1;
		fib1 = t;
	}
	return fib1; /* fib(11) = 89 */
}
`, 89},

	{"compound-assignment-mix", `
int main(void) {
	int x;
	x = 100;
	x += 10;
	x -= 4;
	x *= 2;
	x /= 3;
	x %= 50;
	x <<= 2;
	x >>= 1;
	x |= 1;
	x ^= 2;
	x &= 0xff;
	return x;
}
`, func() int64 {
		x := int64(100)
		x += 10
		x -= 4
		x *= 2
		x /= 3
		x %= 50
		x <<= 2
		x >>= 1
		x |= 1
		x ^= 2
		x &= 0xff
		return x
	}()},

	{"enum-values", `
enum state { IDLE, BUSY = 5, DONE };
int main(void) { return IDLE + BUSY * 10 + DONE * 100; }
`, 650},

	{"typedef-chain", `
typedef int myint;
typedef myint *intp;
int main(void) {
	myint x;
	intp p;
	x = 7;
	p = &x;
	*p = *p + 1;
	return x;
}
`, 8},

	{"saxpy-strided", `
float y[64], x[64];
int main(void) {
	int i, bad;
	for (i = 0; i < 64; i++) { y[i] = 1; x[i] = i; }
	for (i = 0; i < 32; i++)
		y[2*i] = y[2*i] + 0.5f * x[2*i];
	bad = 0;
	for (i = 0; i < 64; i++) {
		float want;
		if (i % 2) want = 1.0f; else want = 1.0f + 0.5f * i;
		if (y[i] != want) bad = bad + 1;
	}
	return bad;
}
`, 0},

	{"conditional-store-loop", `
int a[32];
int main(void) {
	int i, s;
	for (i = 0; i < 32; i++)
		if (i % 3 == 0) a[i] = i; else a[i] = -1;
	s = 0;
	for (i = 0; i < 32; i++)
		if (a[i] >= 0) s = s + a[i];
	return s;
}
`, 0 + 3 + 6 + 9 + 12 + 15 + 18 + 21 + 24 + 27 + 30},
}

func TestTorture(t *testing.T) {
	configs := []struct {
		name  string
		opts  Options
		procs int
	}{
		{"O0", Options{OptLevel: 0}, 1},
		{"O1", ScalarOptions(), 1},
		{"full-p1", FullOptions(), 1},
		{"full-p2", FullOptions(), 2},
	}
	for _, tc := range tortureCases {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/%s", tc.name, cfg.name), func(t *testing.T) {
				res, err := Run(tc.src, cfg.opts, cfg.procs)
				if err != nil {
					t.Fatalf("run: %v\nsource:\n%s", err, tc.src)
				}
				if res.ExitCode != tc.want {
					t.Fatalf("exit %d, want %d\nsource:\n%s", res.ExitCode, tc.want, tc.src)
				}
			})
		}
	}
}

// Initializer-list cases exercise the brace-initializer support added to
// the front end.
var initListCases = []struct {
	name string
	src  string
	want int64
}{
	{"global-array-init", `
int tbl[5] = {10, 20, 30, 40, 50};
int main(void) { return tbl[0] + tbl[4]; }
`, 60},

	{"global-partial-init-zeros", `
int tbl[6] = {1, 2};
int main(void) { return tbl[0] + tbl[1] + tbl[2] + tbl[5]; }
`, 3},

	{"global-float-array", `
float w[4] = {0.5f, 1.5f, 2.5f, 3.5f};
int main(void) { return (int)(w[0] + w[1] + w[2] + w[3]); }
`, 8},

	{"global-2d-init", `
int m[2][3] = {{1, 2, 3}, {4, 5, 6}};
int main(void) { return m[0][0] * 100 + m[1][2]; }
`, 106},

	{"global-struct-init", `
struct point { int x; int y; };
struct point origin = {3, 4};
int main(void) { return origin.x * 10 + origin.y; }
`, 34},

	{"global-negative-init", `
int vals[3] = {-1, -2, -3};
int main(void) { return vals[0] + vals[1] + vals[2] + 10; }
`, 4},

	{"local-array-init", `
int main(void) {
	int a[4] = {7, 8, 9, 10};
	return a[0] + a[3];
}
`, 17},

	{"local-partial-zeros", `
int main(void) {
	int a[5] = {1};
	return a[0] + a[1] + a[4];
}
`, 1},

	{"local-struct-init", `
struct pair { int a; float b; };
int main(void) {
	struct pair p = {6, 2.5f};
	return p.a + (int)(p.b * 2.0f);
}
`, 11},

	{"local-runtime-init", `
int f(int k) {
	int a[3] = {k, k * 2, k * 3};
	return a[0] + a[1] + a[2];
}
int main(void) { return f(5); }
`, 30},
}

func TestInitializerLists(t *testing.T) {
	for _, tc := range initListCases {
		for _, cfg := range []Options{{OptLevel: 0}, ScalarOptions(), FullOptions()} {
			res, err := Run(tc.src, cfg, 1)
			if err != nil {
				t.Fatalf("%s: %v\nsource:\n%s", tc.name, err, tc.src)
			}
			if res.ExitCode != tc.want {
				t.Fatalf("%s: exit %d want %d\nsource:\n%s", tc.name, res.ExitCode, tc.want, tc.src)
			}
		}
	}
}

// initializerErrors are sources the front end must reject; they also
// seed FuzzFrontEndDiagnostics.
var initializerErrors = []string{
	"int a[2] = {1, 2, 3}; int main(void){return 0;}",
	"int g; int x = g; int main(void){return 0;}",         // non-constant global init
	"int a[2] = {1, g}; int g; int main(void){return 0;}", // undeclared then declared
	"struct s {int a;}; struct s v = {1, 2}; int main(void){return 0;}",
}

func TestInitializerErrors(t *testing.T) {
	for _, src := range initializerErrors {
		if _, err := Compile(src, ScalarOptions()); err == nil {
			t.Errorf("accepted:\n%s", src)
		}
	}
}

// Unsigned semantics: comparisons, division, shifts, and narrow loads.
var unsignedCases = []struct {
	name string
	src  string
	want int64
}{
	{"unsigned-compare", `
int main(void) {
	unsigned int a, b;
	a = 0xffffffff; /* 4294967295 as unsigned */
	b = 1;
	if (a > b) return 1; /* unsigned: huge > 1 */
	return 0;
}
`, 1},

	{"signed-compare-contrast", `
int main(void) {
	int a, b;
	a = -1;
	b = 1;
	if (a < b) return 1; /* signed: -1 < 1 */
	return 0;
}
`, 1},

	{"unsigned-divide", `
int main(void) {
	unsigned int a;
	a = 0xfffffffe;
	return a / 0x40000000; /* 4294967294 / 1073741824 = 3 */
}
`, 3},

	{"unsigned-shift-right", `
int main(void) {
	unsigned int a;
	a = 0x80000000;
	return a >> 28; /* logical: 8 */
}
`, 8},

	{"unsigned-char-load", `
unsigned char bytes[2];
int main(void) {
	bytes[0] = 200;
	return bytes[0]; /* zero-extends to 200, not -56 */
}
`, 200},

	{"signed-char-load-contrast", `
char bytes[2];
int main(void) {
	bytes[0] = 200;
	return bytes[0] + 256; /* sign-extends to -56 */
}
`, 200},
}

func TestUnsignedSemantics(t *testing.T) {
	for _, tc := range unsignedCases {
		for _, cfg := range []Options{{OptLevel: 0}, ScalarOptions()} {
			res, err := Run(tc.src, cfg, 1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if res.ExitCode != tc.want {
				t.Errorf("%s (opts %+v): exit %d want %d", tc.name, cfg, res.ExitCode, tc.want)
			}
		}
	}
}
