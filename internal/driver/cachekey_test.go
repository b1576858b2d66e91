package driver

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/inline"
	"repro/internal/schedule"
)

func testCatalog(t *testing.T, src string) *inline.Catalog {
	t.Helper()
	res := &Result{}
	if err := frontEnd(src, res, 1); err != nil {
		t.Fatalf("front end: %v", err)
	}
	return inline.BuildCatalog(res.IL)
}

func key(t *testing.T, src string, opts Options) string {
	t.Helper()
	k, err := CacheKey(src, opts)
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	return k
}

const ckSrc = "int main(void) { return 0; }"

func TestCacheKeyCatalogOrderIrrelevant(t *testing.T) {
	ca := testCatalog(t, "int addone(int x) { return x + 1; }")
	cb := testCatalog(t, "float half(float x) { return x / 2; }")
	base := FullOptions()
	a, b := base, base
	a.Catalogs = []*inline.Catalog{ca, cb}
	b.Catalogs = []*inline.Catalog{cb, ca}
	if key(t, ckSrc, a) != key(t, ckSrc, b) {
		t.Error("catalog attachment order changed the key")
	}
	// Attaching the same content twice is the same compile.
	dup := base
	dup.Catalogs = []*inline.Catalog{ca, cb, ca}
	if key(t, ckSrc, a) != key(t, ckSrc, dup) {
		t.Error("duplicate catalog attachment changed the key")
	}
	// A genuinely different catalog set is a different compile.
	one := base
	one.Catalogs = []*inline.Catalog{ca}
	if key(t, ckSrc, a) == key(t, ckSrc, one) {
		t.Error("dropping a catalog kept the key")
	}
}

func TestCacheKeyIrrelevantFieldsCollapse(t *testing.T) {
	cat := testCatalog(t, "int addone(int x) { return x + 1; }")
	cases := []struct {
		name string
		a, b Options
	}{
		{"VL zero vs explicit default",
			Options{OptLevel: 1, Vectorize: true},
			Options{OptLevel: 1, Vectorize: true, VL: schedule.DefaultVL}},
		{"VL without vectorization",
			Options{OptLevel: 1},
			Options{OptLevel: 1, VL: 8}},
		{"catalogs without inlining",
			Options{OptLevel: 1},
			Options{OptLevel: 1, Catalogs: []*inline.Catalog{cat}}},
		{"noalias with no dependence client",
			Options{OptLevel: 1},
			Options{OptLevel: 1, NoAlias: true}},
		{"scalar knobs at O0",
			Options{},
			Options{Straightforward: true, ForceIVSub: true}},
		{"opt level above one",
			Options{OptLevel: 1, StrengthReduce: true},
			Options{OptLevel: 2, StrengthReduce: true}},
	}
	for _, c := range cases {
		if key(t, ckSrc, c.a) != key(t, ckSrc, c.b) {
			t.Errorf("%s: keys differ but compiles are identical", c.name)
		}
	}
}

// TestCacheKeySemanticFlagsDiffer flips every field of Options, found by
// reflection, from FullOptions and from plain -O1, and requires each flip
// to change the key at one base at least. Two compiles that differ only
// in an unkeyed field would share a titand cache entry, so a field added
// to Options fails here until canonicalOptions keys it, or until inert
// lists it with the reason it cannot change a compile at either base.
func TestCacheKeySemanticFlagsDiffer(t *testing.T) {
	inert := map[string]string{}
	cat := testCatalog(t, "int addone(int x) { return x + 1; }")
	flip := func(f reflect.Value) bool {
		switch {
		case f.Kind() == reflect.Bool:
			f.SetBool(!f.Bool())
		case f.Kind() == reflect.Int && f.Int() != 0:
			f.SetInt(0)
		case f.Kind() == reflect.Int:
			f.SetInt(8)
		case f.Type() == reflect.TypeOf([]*inline.Catalog(nil)):
			f.Set(reflect.ValueOf([]*inline.Catalog{cat}))
		default:
			return false
		}
		return true
	}
	bases := []Options{FullOptions(), {OptLevel: 1}}
	// flipped[b] maps each key a flip at base b produced to the field.
	flipped := make([]map[string]string, len(bases))
	for b, base := range bases {
		flipped[b] = map[string]string{key(t, ckSrc, base): "nothing"}
	}
	fields := reflect.TypeOf(Options{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		changed := false
		for b, base := range bases {
			o := base
			if !flip(reflect.ValueOf(&o).Elem().Field(i)) {
				t.Fatalf("%s: no flip for type %s", name, fields.Field(i).Type)
			}
			k := key(t, ckSrc, o)
			if prev, dup := flipped[b][k]; dup {
				if prev != "nothing" {
					t.Errorf("flipping %s keys like flipping %s", name, prev)
				}
				continue
			}
			flipped[b][k] = name
			changed = true
		}
		if reason, ok := inert[name]; ok && changed {
			t.Errorf("%s is listed inert (%s) but changes the key", name, reason)
		} else if !ok && !changed {
			t.Errorf("flipping %s changes the key at no base: key it in canonicalOptions, or list it in inert with the reason", name)
		}
	}
}

func TestCacheKeySourceSensitive(t *testing.T) {
	opts := ScalarOptions()
	if key(t, "int main(void){return 0;}", opts) == key(t, "int main(void){return 1;}", opts) {
		t.Error("different sources share a key")
	}
}

func TestCanonicalOptionsReadable(t *testing.T) {
	canon, err := canonicalOptions(FullOptions())
	if err != nil {
		t.Fatalf("canonicalOptions: %v", err)
	}
	for _, want := range []string{"opts/v1", "inline=true", "vectorize=true", "vl=32", "schedule=true"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical form lacks %q:\n%s", want, canon)
		}
	}
}
