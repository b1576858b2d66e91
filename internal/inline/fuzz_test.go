package inline

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ctype"
	"repro/internal/il"
	"repro/internal/lower"
	"repro/internal/parser"
	"repro/internal/sema"
)

// frontEnd lowers C source to IL for catalog construction; testing.TB so
// both tests and the fuzz seed builder can use it.
func frontEnd(t testing.TB, src string) *il.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	prog, err := lower.File(f, info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

// catalogBytes compiles a small library and serializes its catalog — the
// well-formed seed the robustness tests corrupt.
func catalogBytes(t testing.TB) []byte {
	t.Helper()
	src := `
struct pt { int x; int y; };
int gsum;
int norm2(struct pt *p) { return p->x * p->x + p->y * p->y; }
float axpy(float a, float x, float y) { return a * x + y; }
void accum(int *v, int n) { int i; for (i = 0; i < n; i++) gsum = gsum + v[i]; }
`
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, BuildCatalog(frontEnd(t, src))); err != nil {
		t.Fatalf("write catalog: %v", err)
	}
	return buf.Bytes()
}

// chainSrc sets a[i] = a[i-1] + 1 for i in [1, n): each iteration reads
// the element the one before it wrote, so its loop is not parallel.
const chainSrc = `
int chain(int *a, int n)
{
	int i;
	for (i = 1; i < n; i++)
		a[i] = a[i - 1] + 1;
	return a[n - 1];
}
`

// laterForms are the IL forms only the passes after inlining build.
var laterForms = []string{"DoLoop", "DoParallel", "VectorAssign", "VecRef"}

// laterFormCatalog writes, with the encoder's primitives, the catalog of
// chainSrc with its while loop replaced by one statement in form:
//
//	DoLoop        do i = 1, n - 1, 1 { a[i] = a[i-1] + 1 }
//	DoParallel    do parallel i = 1, n - 1, 1 { a[i] = a[i-1] + 1 }
//	VectorAssign  [a + 4 :4](n - 1) = 1
//	VecRef        i = [a :4]
//
// Any other form keeps the while loop, which makes an honest catalog.
// The do parallel asserts that the chain's iterations are independent.
func laterFormCatalog(t testing.TB, form string) []byte {
	t.Helper()
	p := frontEnd(t, chainSrc).Procs[0]
	loop := p.Body[1].(*il.While)
	store, iv := loop.Body[0], loop.Body[1].(*il.Assign).Dst.(*il.VarRef).ID
	a := &il.VarRef{ID: p.Params[0], T: p.Vars[p.Params[0]].Type}
	n := &il.VarRef{ID: p.Params[1], T: ctype.IntType}
	one := &il.ConstInt{Val: 1, T: ctype.IntType}
	four := &il.ConstInt{Val: 4, T: ctype.IntType}
	limit := &il.Bin{Op: il.OpSub, L: n, R: one, T: ctype.IntType}

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteString(catalogMagic)
	e := &encoder{w: w, typeIdx: map[*ctype.Type]int{}}
	e.u64(catalogVersion)
	e.typeID(ctype.IntType)
	for i := range p.Vars {
		e.typeID(p.Vars[i].Type)
	}
	e.writeTypeTable()
	e.u64(0) // globals
	e.u64(1) // procedures; encoder.proc's header, then the body by hand
	e.str(p.Name)
	e.i64(int64(e.refID(p.Ret)))
	e.boolean(p.Variadic)
	e.u64(uint64(len(p.Params)))
	for _, id := range p.Params {
		e.u64(uint64(id))
	}
	e.u64(uint64(len(p.Vars)))
	for i := range p.Vars {
		v := &p.Vars[i]
		e.str(v.Name)
		e.i64(int64(e.refID(v.Type)))
		e.u64(uint64(v.Class))
		e.boolean(v.AddrTaken)
	}
	e.u64(3)
	e.stmt(p.Body[0])
	e.u64(4) // the loop's line and column
	e.u64(2)
	switch form {
	case "DoLoop", "DoParallel":
		if form == "DoLoop" {
			e.u64(tDoLoop)
		} else {
			e.u64(tDoParallel)
		}
		e.u64(uint64(iv))
		e.expr(one)
		e.expr(limit)
		e.expr(one)
		if form == "DoLoop" {
			e.boolean(false) // Safe
		}
		e.stmts([]il.Stmt{store})
	case "VectorAssign":
		e.u64(tVectorAssign)
		e.expr(&il.Bin{Op: il.OpAdd, L: a, R: four, T: a.T})
		e.expr(four)
		e.expr(limit)
		e.i64(int64(e.refID(ctype.IntType)))
		e.expr(one)
	case "VecRef":
		e.u64(tAssign)
		e.expr(&il.VarRef{ID: iv, T: ctype.IntType})
		e.u64(xVecRef)
		e.expr(a)
		e.expr(four)
		e.i64(int64(e.refID(ctype.IntType)))
	default:
		e.u64(tWhile)
		e.expr(loop.Cond)
		e.boolean(loop.Safe)
		e.stmts(loop.Body)
	}
	e.stmt(p.Body[2])
	if e.err != nil || w.Flush() != nil {
		t.Fatalf("write %s catalog: %v", form, e.err)
	}
	return buf.Bytes()
}

// TestReadCatalogRefusesLaterForms: a catalog holds front-end IL, what
// lowering builds. A procedure carrying a DO, do parallel or vector form
// is refused as a whole, so a catalog cannot hand the compiler a parallel
// loop no dependence test has checked. The same bytes with the while loop
// kept decode. The four are seeds of FuzzReadCatalog, which titand's
// upload test posts too; UPDATE_GOLDEN=1 rewrites them.
func TestReadCatalogRefusesLaterForms(t *testing.T) {
	if _, err := ReadCatalog(bytes.NewReader(laterFormCatalog(t, "While"))); err != nil {
		t.Fatalf("the honest catalog: %v", err)
	}
	for _, form := range laterForms {
		raw := laterFormCatalog(t, form)
		_, err := ReadCatalog(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), form+" is not front-end IL") {
			t.Errorf("%s: err %v, want it refused as not front-end IL", form, err)
		}
		seed := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		path := filepath.Join("testdata", "fuzz", "FuzzReadCatalog", "later-form-"+form)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != seed {
			t.Errorf("%s: seed %s is stale or missing (run with UPDATE_GOLDEN=1): %v", form, path, err)
		}
	}
}

func TestReadCatalogRoundTrip(t *testing.T) {
	raw := catalogBytes(t)
	c, err := ReadCatalog(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(c.Procs) != 3 || len(c.Globals) != 1 {
		t.Fatalf("got %d procs, %d globals", len(c.Procs), len(c.Globals))
	}
	fp1, err := c.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	// Round-tripping must preserve the content identity.
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, c); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	c2, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatalf("reread: %v", err)
	}
	fp2, err := c2.Fingerprint()
	if err != nil {
		t.Fatalf("refingerprint: %v", err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable across round trip: %s vs %s", fp1, fp2)
	}
}

// TestReadCatalogAggregateLayout pins a decode-ordering fix: typeID
// interns a struct before its field types, so the decoder must not
// recompute the struct's layout until the whole table is read — doing it
// mid-table laid structs out with zero-sized shell fields.
func TestReadCatalogAggregateLayout(t *testing.T) {
	src := `
struct q { char c; double d; int a[3]; };
int use(struct q *p) { return p->a[2]; }
`
	prog := frontEnd(t, src)
	var want *ctype.Type
	for i := range prog.Procs[0].Vars {
		ty := prog.Procs[0].Vars[i].Type
		if ty != nil && ty.Kind == ctype.Pointer && ty.Elem.Kind == ctype.Struct {
			want = ty.Elem
		}
	}
	if want == nil {
		t.Fatal("no pointer-to-struct parameter found")
	}
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, BuildCatalog(prog)); err != nil {
		t.Fatalf("write: %v", err)
	}
	c, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var got *ctype.Type
	for i := range c.Procs[0].Vars {
		ty := c.Procs[0].Vars[i].Type
		if ty != nil && ty.Kind == ctype.Pointer && ty.Elem.Kind == ctype.Struct {
			got = ty.Elem
		}
	}
	if got == nil {
		t.Fatal("decoded proc lost its pointer-to-struct parameter")
	}
	if got.Size() != want.Size() {
		t.Errorf("struct size %d, want %d", got.Size(), want.Size())
	}
	for i := range want.Fields {
		if got.Fields[i].Offset != want.Fields[i].Offset {
			t.Errorf("field %s offset %d, want %d",
				want.Fields[i].Name, got.Fields[i].Offset, want.Fields[i].Offset)
		}
	}
}

func TestReadCatalogBadMagic(t *testing.T) {
	_, err := ReadCatalog(strings.NewReader("NOTACATALOGDATA"))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
	// Too short for even the magic: reported as truncation, with counts.
	_, err = ReadCatalog(strings.NewReader("TIT"))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated error, got %v", err)
	}
}

func TestReadCatalogUnsupportedVersion(t *testing.T) {
	raw := append([]byte(catalogMagic), 99) // varint(99) is one byte
	_, err := ReadCatalog(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("want error for version 99")
	}
	msg := err.Error()
	if !strings.Contains(msg, "99") || !strings.Contains(msg, "versions 1 through 2") {
		t.Fatalf("version error should name found and supported versions, got %q", msg)
	}
}

func TestReadCatalogTruncated(t *testing.T) {
	raw := catalogBytes(t)
	// Cut the stream at several depths: inside the type table, inside the
	// globals, inside a procedure body. Every prefix must produce a
	// descriptive error, never a panic or a silent success.
	for _, n := range []int{len(catalogMagic), len(catalogMagic) + 1, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		_, err := ReadCatalog(bytes.NewReader(raw[:n]))
		if err == nil {
			t.Errorf("prefix of %d bytes: want error, got nil", n)
			continue
		}
		if !strings.Contains(err.Error(), "catalog:") {
			t.Errorf("prefix of %d bytes: error %q lacks catalog: prefix", n, err)
		}
	}
}

// FuzzReadCatalog asserts the decoder never panics: catalogs arrive over
// HTTP in the compile service, so arbitrary bytes must fail cleanly. The
// seed corpus (testdata/fuzz/FuzzReadCatalog) holds a catalog carrying
// each reserved tag (TestReadCatalogRefusesLaterForms).
func FuzzReadCatalog(f *testing.F) {
	raw := catalogBytes(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])        // truncated mid-stream
	f.Add(raw[:len(catalogMagic)]) // header only
	f.Add([]byte("TITANCAT"))
	f.Add([]byte("NOTACATA"))
	f.Add(append([]byte(catalogMagic), 99)) // future version
	corrupt := bytes.Clone(raw)
	for i := len(catalogMagic) + 1; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0x5a
	}
	f.Add(corrupt)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCatalog(bytes.NewReader(data))
		if err == nil && c == nil {
			t.Fatal("nil catalog with nil error")
		}
		if err == nil {
			// Whatever decoded must re-serialize (fingerprinting relies
			// on it): the encoder and the decoder cover the same forms.
			if _, ferr := c.Fingerprint(); ferr != nil {
				t.Fatalf("decoded catalog does not re-serialize: %v", ferr)
			}
		}
	})
}
