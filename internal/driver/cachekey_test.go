package driver

import (
	"strings"
	"testing"

	"repro/internal/inline"
	"repro/internal/vector"
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
		{"nil vs explicit default inline config",
			Options{OptLevel: 1, Inline: true},
			Options{OptLevel: 1, Inline: true, InlineConfig: ptr(inline.DefaultConfig())}},
		{"VL zero vs explicit default",
			Options{OptLevel: 1, Vectorize: true},
			Options{OptLevel: 1, Vectorize: true, VL: vector.DefaultVL}},
		{"VL without vectorization",
			Options{OptLevel: 1},
			Options{OptLevel: 1, VL: 8}},
		{"catalogs without inlining",
			Options{OptLevel: 1},
			Options{OptLevel: 1, Catalogs: []*inline.Catalog{cat}}},
		{"inline config without inlining",
			Options{OptLevel: 1},
			Options{OptLevel: 1, InlineConfig: &inline.Config{MaxStmts: 5}}},
		{"noalias with no dependence client",
			Options{OptLevel: 1},
			Options{OptLevel: 1, NoAlias: true}},
		{"scalar knobs at O0",
			Options{},
			Options{SimpleIVSub: true, NoCopyProp: true, DisableIVSub: true}},
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

func TestCacheKeySemanticFlagsDiffer(t *testing.T) {
	base := FullOptions()
	flip := []struct {
		name string
		mut  func(*Options)
	}{
		{"-vector off", func(o *Options) { o.Vectorize = false }},
		{"-parallel off", func(o *Options) { o.Parallelize = false }},
		{"-inline off", func(o *Options) { o.Inline = false }},
		{"-noalias", func(o *Options) { o.NoAlias = true }},
		{"-vl 8", func(o *Options) { o.VL = 8 }},
		{"list-parallel", func(o *Options) { o.ListParallel = true }},
		{"strength off", func(o *Options) { o.StrengthReduce = false }},
		{"O0", func(o *Options) { o.OptLevel = 0 }},
		{"simple ivsub", func(o *Options) { o.SimpleIVSub = true }},
		{"no copyprop", func(o *Options) { o.NoCopyProp = true }},
		{"no schedule", func(o *Options) { o.NoSchedule = true }},
		{"no strength promotion", func(o *Options) { o.NoStrengthPromotion = true }},
		{"inline policy tightened", func(o *Options) { o.InlineConfig = &inline.Config{MaxStmts: 1, MaxDepth: 1} }},
	}
	baseKey := key(t, ckSrc, base)
	seen := map[string]string{baseKey: "base"}
	for _, f := range flip {
		o := base
		f.mut(&o)
		k := key(t, ckSrc, o)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", f.name, prev)
		}
		seen[k] = f.name
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

func ptr[T any](v T) *T { return &v }
