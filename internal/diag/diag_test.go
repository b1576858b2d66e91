package diag

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/token"
)

func TestNilReporterIsSafe(t *testing.T) {
	var r *Reporter
	r.Report(Diagnostic{Code: VectVectorized})
	r.Report(Diagnostic{Severity: SevError, Code: ParseError, Pos: token.Pos{Line: 1, Col: 1}, Message: "msg"})
	if got := r.All(); got != nil {
		t.Errorf("nil reporter returned diagnostics: %v", got)
	}
	if r.Len() != 0 {
		t.Errorf("nil reporter Len = %d", r.Len())
	}
}

func TestReporterSortsDeterministically(t *testing.T) {
	var r Reporter
	// Report out of order across procs, lines, and severities.
	r.Report(Diagnostic{Severity: SevRemark, Code: VectVectorized, Pos: token.Pos{Line: 9, Col: 2}, Proc: "zeta", Message: "later proc"})
	r.Report(Diagnostic{Severity: SevRemark, Code: ParParallelized, Pos: token.Pos{Line: 5, Col: 1}, Proc: "alpha", Message: "line 5"})
	r.Report(Diagnostic{Severity: SevError, Code: SemaError, Pos: token.Pos{Line: 5, Col: 1}, Message: "error first at same pos"})
	r.Report(Diagnostic{Severity: SevRemark, Code: IVSubstituted, Pos: token.Pos{Line: 2, Col: 4}, Proc: "alpha", Message: "line 2"})
	all := r.All()
	if len(all) != 4 {
		t.Fatalf("got %d diagnostics, want 4", len(all))
	}
	// Errors carry no proc, so "" sorts before alpha and zeta.
	wantCodes := []Code{SemaError, IVSubstituted, ParParallelized, VectVectorized}
	for i, d := range all {
		if d.Code != wantCodes[i] {
			t.Errorf("position %d: got %s, want %s", i, d.Code, wantCodes[i])
		}
	}
}

func TestReporterConcurrentUse(t *testing.T) {
	var r Reporter
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Report(Diagnostic{Severity: SevRemark, Code: VectVectorized, Pos: token.Pos{Line: i + 1, Col: p + 1}, Proc: "proc", Message: "m"})
			}
		}(p)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("Len = %d, want 800", r.Len())
	}
}

func TestDiagnosticString(t *testing.T) {
	site := token.Pos{Line: 22, Col: 2}
	d := Diagnostic{
		Severity:    SevRemark,
		Code:        VectDepCycle,
		Pos:         token.Pos{Line: 10, Col: 2},
		Proc:        "main",
		Pass:        "vectorize",
		Message:     "loop not vectorized",
		Args:        map[string]string{"dep": "S0 -flow-> S1", "b": "2", "a": "1"},
		InlinedFrom: &site,
	}
	got := d.String()
	want := "10:2: remark[vect-dep-cycle]: loop not vectorized (proc main, pass vectorize) [inlined from 22:2] {a=1 b=2 dep=S0 -flow-> S1}"
	if got != want {
		t.Errorf("String:\n got %q\nwant %q", got, want)
	}
}

func TestDiagnosticJSONRoundTrip(t *testing.T) {
	site := token.Pos{Line: 3, Col: 7}
	in := Diagnostic{
		Severity:    SevWarning,
		Code:        FixpointCapped,
		Pos:         token.Pos{Line: 1, Col: 5},
		Proc:        "f",
		Pass:        "scalar-opt",
		Message:     "capped",
		Args:        map[string]string{"rounds": "8"},
		InlinedFrom: &site,
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Severity and position use the stable lowercase wire names.
	for _, frag := range []string{`"severity":"warning"`, `"line":1`, `"col":5`, `"inlined_from"`} {
		if !strings.Contains(string(blob), frag) {
			t.Errorf("wire form %s lacks %s", blob, frag)
		}
	}
	var out Diagnostic
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Severity != in.Severity || out.Code != in.Code || out.Pos != in.Pos ||
		out.Message != in.Message || out.Args["rounds"] != "8" ||
		out.InlinedFrom == nil || *out.InlinedFrom != site {
		t.Errorf("round trip changed the diagnostic: %+v vs %+v", out, in)
	}
}

func TestSeverityUnmarshalRejectsUnknown(t *testing.T) {
	var s Severity
	if err := s.UnmarshalText([]byte("fatal")); err == nil {
		t.Error("want error for unknown severity name")
	}
}
