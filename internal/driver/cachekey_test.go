package driver

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/inline"
	"repro/internal/pass"
	"repro/internal/schedule"
	"repro/internal/titan"
)

func testCatalog(t *testing.T, src string) *inline.Catalog {
	t.Helper()
	res := &Result{}
	if err := frontEnd(src, res); err != nil {
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

// flipper returns a function that changes one field of an Options value:
// a bool negated, an int zeroed or set to 8, no catalogs one.
func flipper(t *testing.T) func(f reflect.Value) bool {
	cat := testCatalog(t, "int addone(int x) { return x + 1; }")
	return func(f reflect.Value) bool {
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
}

// pinnedKeyBases are the options TestCacheKeysPinned flips each field of.
var pinnedKeyBases = []struct {
	name string
	opts Options
}{{"O0", Options{}}, {"O1", Options{OptLevel: 1}}, {"scalar", ScalarOptions()}, {"full", FullOptions()}}

// pinnedKeys are ckSrc's keys at each base and with each field of it
// flipped. A change to how the driver or the cache key derives the
// pipeline must leave them alone: titand's disk tier outlives a build.
var pinnedKeys = map[string]string{
	"O0":                     "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/Catalogs":            "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/ForceIVSub":          "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/Inline":              "00e00da88906a34509557224495a39af63dceacfc289648ab37d137ae848a399",
	"O0/ListParallel":        "9293e979d80a9f3fa319a12f76a0f1b9b16009a6be997b7d0cf1adffbee51300",
	"O0/NoAlias":             "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/NoSchedule":          "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/OptLevel":            "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"O0/Parallelize":         "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/Straightforward":     "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/StrengthReduce":      "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/VL":                  "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O0/Vectorize":           "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O1":                     "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"O1/Catalogs":            "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"O1/ForceIVSub":          "a602960bde262ba55e04773076347288e5d71c3c1429360056506415cebb2018",
	"O1/Inline":              "60cc97342c4cedb9c63149585b2c639e8a3e0e0c805cff1a0038afe5911aa74e",
	"O1/ListParallel":        "1e5b08324bfe9057a331aa79ab5affff480687a57972753aacf17bc6002cf2b9",
	"O1/NoAlias":             "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"O1/NoSchedule":          "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"O1/OptLevel":            "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"O1/Parallelize":         "5b26945d1406360888dd69dfd560fa00c56a5f7767b0b0dea8f5ab81de078578",
	"O1/Straightforward":     "6f1b79235768a2e035e14d587d1be0c3cc3f23ffd0453e54aa1e3cb129423e68",
	"O1/StrengthReduce":      "39927365ad57a2ede3f07aa0335640ee31f12de457f212a2a802c4c837466c32",
	"O1/VL":                  "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"O1/Vectorize":           "2b97761d890787da8ec9b84e3d6f62c91e2e48f14f5256eb29b5a4a12d2e715e",
	"full":                   "42a2e4566e53cd6354a667b793f4864a33591e5437ccdadb6c8b1fa326147d9d",
	"full/Catalogs":          "66bb10501ec1abf6e3e409976c2a1430c7cfa665f37ea17d6fac6ee579f9f4fd",
	"full/ForceIVSub":        "42a2e4566e53cd6354a667b793f4864a33591e5437ccdadb6c8b1fa326147d9d",
	"full/Inline":            "cd78c0dfee48e86d96c45afe1750efb6afc0914b24ad2ce597d42b68a1b95fde",
	"full/ListParallel":      "102c12defb822dc49326361d1b29293021fc9932f74ecfe5a62a9163f007d8b7",
	"full/NoAlias":           "e9a9bc95024fe2e6576bf4d07c826ed9ba8414d2a3731cb3efdee876383f3e80",
	"full/NoSchedule":        "386d0dd9b7f140fcd8303e854345a2269d5c6a57993f515c0c168db5f734ccea",
	"full/OptLevel":          "00e00da88906a34509557224495a39af63dceacfc289648ab37d137ae848a399",
	"full/Parallelize":       "d6b57f24f65cee714044aee514ca1b452d7d9d103c1453ed1c4eb404d84d3e7a",
	"full/Straightforward":   "d84313b007d179ff9d06e3c33fe515b4fc0d732756f1fe213b7b19f350edcc25",
	"full/StrengthReduce":    "3402a6aea383537677fcd5488dfb46396e484ad910ee8ac929b57d734f4db6b2",
	"full/VL":                "be03f370e30f294b746c899729a9c967d556ef1ddebdc74b235706a1f902b0ce",
	"full/Vectorize":         "86d9073a678cfd3b9455f65869a1ba3693dae459944a471de18157ea3f1b0b24",
	"scalar":                 "39927365ad57a2ede3f07aa0335640ee31f12de457f212a2a802c4c837466c32",
	"scalar/Catalogs":        "39927365ad57a2ede3f07aa0335640ee31f12de457f212a2a802c4c837466c32",
	"scalar/ForceIVSub":      "39927365ad57a2ede3f07aa0335640ee31f12de457f212a2a802c4c837466c32",
	"scalar/Inline":          "8f13dd2b648643c0b5e9985e975df28b419edecc0c4586f03d509bec7c1f90d1",
	"scalar/ListParallel":    "017b35e79c354070daecaa0ab83fa0941d829d13dcdd827b816c4adff247c27e",
	"scalar/NoAlias":         "272944efce6d7c47b75417c5ff944fa971379052ee7f613875ca478a31990eb2",
	"scalar/NoSchedule":      "092d397963bbd16e3656a6a135a7121dca54b0de2751127dffbfbd5f7cc306f9",
	"scalar/OptLevel":        "847d1dfeaef7c805cb11b453d7a2d937541cd03baaeeb5c381447df6023c3a4b",
	"scalar/Parallelize":     "c324f049abc172e78f0ce3cc48cda5a6d634c9c49e7cbe8c48acacbee8bc7e2c",
	"scalar/Straightforward": "fb5e9f6f037d860b19f8b99c9475762c3d024e2ce52bda33ad735fe795915462",
	"scalar/StrengthReduce":  "f2979450ff175121c12417aca5ea3d1c78a6c138ed3764de25bc01610a756232",
	"scalar/VL":              "39927365ad57a2ede3f07aa0335640ee31f12de457f212a2a802c4c837466c32",
	"scalar/Vectorize":       "4ec71d3cebb0a277b8e31bbfdf8e2ef3ffe444422e3e776390d0f77c5f3fbb23",
}

func TestCacheKeysPinned(t *testing.T) {
	names, sets := pinnedOptionSets(t)
	for i, o := range sets {
		if k := key(t, ckSrc, o); pinnedKeys[names[i]] != k {
			t.Errorf("%s: key %s, pinned %q", names[i], k, pinnedKeys[names[i]])
		}
	}
	if len(sets) != len(pinnedKeys) {
		t.Errorf("%d keys, %d pinned", len(sets), len(pinnedKeys))
	}
}

// pinnedOptionSets is every base of pinnedKeyBases and every field of it
// flipped, by the names TestCacheKeysPinned pins their keys under.
func pinnedOptionSets(t *testing.T) (names []string, sets []Options) {
	flip := flipper(t)
	fields := reflect.TypeOf(Options{})
	for _, b := range pinnedKeyBases {
		names, sets = append(names, b.name), append(sets, b.opts)
		for i := 0; i < fields.NumField(); i++ {
			o := b.opts
			if !flip(reflect.ValueOf(&o).Elem().Field(i)) {
				t.Fatalf("%s: no flip for type %s", fields.Field(i).Name, fields.Field(i).Type)
			}
			names, sets = append(names, b.name+"/"+fields.Field(i).Name), append(sets, o)
		}
	}
	return names, sets
}

// planCorpus is the source and benchmark kernels, plus a unit that calls
// the flipper's catalog procedure, so that attaching it changes what
// inlining does.
func planCorpus(t *testing.T) map[string]string {
	files, err := filepath.Glob("../../benchmark/programs/*.c")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{"catalog-call": "int addone(int x);\nint g = 41;\nint main(void) { return addone(g); }\n"}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		units[f] = string(src)
	}
	for _, k := range repro.Corpus {
		units["testdata/"+k.Name+".c"] = repro.Source(k.Name, k.Size)
	}
	if want := len(repro.Corpus) + 12 + 1; len(units) != want {
		t.Fatalf("%d corpus units, want %d: the corpus, the benchmark's 12 programs and the catalog call", len(units), want)
	}
	return units
}

// TestPlanDecidesTheCompile holds the cache key and the compiled program
// to the plan the options resolve to, over every pinned option set and
// the corpus: two option sets get equal keys exactly when their plans are
// equal, and equal plans compile to equal programs. A field added to
// Options that the plan ignores but the compile reads fails the second;
// a plan field the rendering leaves out fails the first.
func TestPlanDecidesTheCompile(t *testing.T) {
	names, sets := pinnedOptionSets(t)
	plans := make([]pass.Plan, len(sets))
	class := make([]int, len(sets)) // the first set with an equal plan
	classes := 0
	for i, o := range sets {
		plans[i] = o.Plan()
		class[i] = slices.IndexFunc(plans[:i], func(p pass.Plan) bool { return reflect.DeepEqual(p, plans[i]) })
		if class[i] < 0 {
			class[i] = i
			classes++
		}
	}
	// -O0 with strength reduction, vectorization or parallelization asked
	// for, and ScalarOptions at OptLevel 0, are plain -O0, and
	// FullOptions at OptLevel 0 is -O0 -inline: 33 classes became 29.
	if classes != 29 {
		t.Errorf("%d plans among %d option sets, want 29", classes, len(sets))
	}
	for name, src := range planCorpus(t) {
		t.Run(filepath.Base(name), func(t *testing.T) {
			t.Parallel()
			keys := make([]string, len(sets))
			progs := make([]*titan.Program, len(sets))
			for i, o := range sets {
				keys[i] = key(t, src, o)
				res, err := Compile(src, o)
				if err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
				progs[i] = res.Machine
				if c := class[i]; !progs[c].Equal(progs[i]) {
					t.Errorf("%s and %s resolve to one plan but compile differently", names[i], names[c])
				}
			}
			for i := range sets {
				for j := range i {
					if same := class[i] == class[j]; same != (keys[i] == keys[j]) {
						t.Errorf("%s and %s: equal plans %t, equal keys %t", names[i], names[j], same, !same)
					}
				}
			}
		})
	}
}

// TestO0RunsNoOptimization: -O0 is plain scalar code whatever else is
// asked for; strength reduction, vectorization or parallelization
// requested there neither runs nor turns on the scheduler.
func TestO0RunsNoOptimization(t *testing.T) {
	for name, src := range planCorpus(t) {
		plain, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, o := range []Options{{StrengthReduce: true}, {Vectorize: true}, {Parallelize: true}, {Vectorize: true, Parallelize: true, StrengthReduce: true, NoAlias: true}} {
			asked, err := Compile(src, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !asked.Machine.Equal(plain.Machine) {
				t.Errorf("%s: -O0 with %+v compiles other code than -O0", name, o)
			}
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
	canon, err := FullOptions().Plan().Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	for _, want := range []string{"opts/v1", "inline=true", "vectorize=true", "vl=32", "schedule=true"} {
		if !strings.Contains(canon, want) {
			t.Errorf("canonical form lacks %q:\n%s", want, canon)
		}
	}
}
