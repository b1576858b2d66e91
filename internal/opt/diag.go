package opt

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/il"
	"repro/internal/token"
)

// emitter funnels the scalar optimizer's decisions into a diag.Reporter.
// The fixpoint driver re-runs every sub-pass up to maxRounds times, so a
// site that stays blocked (or a loop already converted) would re-report
// each round; the emitter dedupes on (code, position, message) so each
// decision surfaces exactly once per procedure. A nil emitter drops
// everything, which keeps a run without a reporter allocation-free.
type emitter struct {
	r    *diag.Reporter
	proc string
	seen map[string]bool
}

func newEmitter(r *diag.Reporter, proc string) *emitter {
	if r == nil {
		return nil
	}
	return &emitter{r: r, proc: proc, seen: map[string]bool{}}
}

func (em *emitter) emit(sev diag.Severity, code diag.Code, pass string, pos token.Pos, args map[string]string, format string, a ...any) {
	if em == nil {
		return
	}
	msg := fmt.Sprintf(format, a...)
	key := fmt.Sprintf("%s|%d:%d|%s", code, pos.Line, pos.Col, msg)
	if em.seen[key] {
		return
	}
	em.seen[key] = true
	em.r.Report(diag.Diagnostic{
		Severity: sev,
		Code:     code,
		Pos:      pos,
		Proc:     em.proc,
		Pass:     pass,
		Message:  msg,
		Args:     args,
	})
}

func (em *emitter) remark(code diag.Code, pass string, pos token.Pos, args map[string]string, format string, a ...any) {
	em.emit(diag.SevRemark, code, pass, pos, args, format, a...)
}

func (em *emitter) warn(code diag.Code, pass string, pos token.Pos, format string, a ...any) {
	em.emit(diag.SevWarning, code, pass, pos, nil, format, a...)
}

// procPos returns the first nonzero statement position of p — the anchor
// for procedure-level diagnostics like fixpoint-capped.
func procPos(p *il.Proc) token.Pos {
	var pos token.Pos
	il.WalkStmts(p.Body, func(s il.Stmt) bool {
		if q := il.StmtPos(s); q.Line != 0 {
			pos = q
			return false
		}
		return true
	})
	return pos
}
