package opt

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/token"
)

// TestFixpointCapWarns: a sub-pass that reports a change every round
// never converges. The fixpoint stops after maxRounds rounds, counts the
// procedure as capped and warns once, at the procedure's first statement.
func TestFixpointCapWarns(t *testing.T) {
	p := compileProc(t, "int f(int x)\n{\n\treturn x + 1;\n}\n", "f")
	rounds := 0
	always := subPass{"always", func(*il.Proc) int { rounds++; return 1 }}
	var r diag.Reporter
	counts := fixpoint(p, []subPass{always}, newEmitter(&r, p.Name))
	if rounds != maxRounds || counts["always"] != maxRounds || counts[FixpointCapped] != 1 {
		t.Errorf("ran %d rounds, counts %v: want %d rounds and one capped procedure", rounds, counts, maxRounds)
	}
	ds := r.All()
	want := token.Pos{Line: 3, Col: 2}
	if len(ds) != 1 || ds[0].Code != diag.FixpointCapped || ds[0].Severity != diag.SevWarning || ds[0].Pos != want || ds[0].Proc != "f" {
		t.Errorf("diagnostics %v, want one fixpoint-capped warning at %s in f", ds, want)
	}
}
