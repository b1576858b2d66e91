// Package diag is the compiler's structured diagnostic and
// optimization-remark layer.
//
// The paper's passes constantly make user-visible judgment calls — §5.3
// blocks and backtracks induction-variable substitution, §7 refuses to
// inline recursive procedures, §8 deletes unreachable code, and the
// vectorizer/parallelizer accept or reject each loop off the dependence
// graph. Every such decision is reported here as a Diagnostic: a severity,
// a stable machine-readable code, a source position, the owning procedure,
// a human message, and structured key/value arguments (the blocking
// dependence edge, the chosen strip length, the refused callee, ...).
//
// A Reporter collects diagnostics from concurrently-running per-procedure
// passes (pass.Manager fans procedures out over a worker pool), so it is
// safe for concurrent use. All methods are nil-receiver safe: a pass
// handed no reporter simply reports into the void, which keeps every
// Config plumbable without conditionals at each emission site.
package diag

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/token"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, ordered most to least severe.
const (
	SevError   Severity = iota // the compile failed
	SevWarning                 // suspicious but compilable
	SevRemark                  // an optimization decision, §5–§8
)

var sevNames = [...]string{"error", "warning", "remark"}

// String names the severity.
func (s Severity) String() string {
	if s < 0 || int(s) >= len(sevNames) {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return sevNames[s]
}

// MarshalText renders the severity for JSON ("error", "warning", "remark").
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity name.
func (s *Severity) UnmarshalText(b []byte) error {
	for i, n := range sevNames {
		if n == string(b) {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("diag: unknown severity %q", b)
}

// Code is a stable, machine-readable diagnostic code. Codes are part of
// the wire format (titand /compile, /metrics, -remarks=json): renaming one
// is a breaking change.
type Code string

// Front-end errors (positioned conversions of lexer/parser/sema/lower
// failures).
const (
	LexError   Code = "lex-error"
	ParseError Code = "parse-error"
	SemaError  Code = "sema-error"
	LowerError Code = "lower-error"
)

// Scalar optimization remarks (§5.2, §5.3, §8).
const (
	// WhileConverted: a While loop was proven countable and became a DO
	// loop (§5.2).
	WhileConverted Code = "whiledo-converted"
	// IVSubstituted: induction-variable substitution replaced auxiliary
	// induction variables with closed forms in a loop (§5.3).
	IVSubstituted Code = "iv-substituted"
	// IVBlocked: §5.3's forward-substitution walk hit a redefinition of an
	// operand and had to stop (the "blocking/backtracking" outcome), or a
	// recurrence v = v + step stays out of closed form because step reads
	// the loop index or memory.
	IVBlocked Code = "iv-blocked"
	// ConstUnreachableDelete: constant propagation proved a branch or loop
	// untaken and deleted the dead code (§8).
	ConstUnreachableDelete Code = "const-unreachable-delete"
	// FixpointCapped: the scalar optimizer was still finding changes when
	// the round cap hit; results are valid but possibly not fully
	// propagated.
	FixpointCapped Code = "fixpoint-capped"
)

// Inline expansion remarks (§7).
const (
	InlineExpanded  Code = "inline-expanded"
	InlineRecursive Code = "inline-recursive"
	InlineRefused   Code = "inline-refused"
	// InlineStaticExport: an inlined callee's function-static variable was
	// imported as a hidden global (§7's static-export rule).
	InlineStaticExport Code = "inline-static-export"
)

// Vectorizer verdicts (§5): exactly one per examined innermost DO loop.
const (
	VectVectorized    Code = "vect-vectorized"
	VectDepCycle      Code = "vect-dep-cycle"
	VectNotNormalized Code = "vect-not-normalized"
	VectEmptyBody     Code = "vect-empty-body"
	VectScalarFlow    Code = "vect-scalar-flow"
	// VectBarrier: every candidate statement sits behind a dependence
	// barrier (a call or irregular statement the tester cannot move).
	VectBarrier Code = "vect-barrier"
	// VectNotAffine: no statement is a store with addresses affine in the
	// loop IV.
	VectNotAffine Code = "vect-not-affine"
	// VectMasked: the loop vectorized and at least one strip executes under
	// a mask (if-converted guarded stores). This replaces vect-vectorized
	// as the loop's one verdict.
	VectMasked Code = "vect-masked"
	// VectIfRejected: the loop contained if-converted statements but a
	// dependence crossing the guard kept it serial; args name the blocking
	// dependence ("dep"). This is the loop's one verdict.
	VectIfRejected Code = "vect-if-rejected"
)

// If-conversion remarks (emitted by the ifconvert pass, not vectorizer
// verdicts — the examined loop still gets exactly one verdict later).
const (
	// VectIfConverted: a single-level conditional in a countable DO body
	// was flattened to predicated stores ahead of vectorization.
	VectIfConverted Code = "vect-if-converted"
)

// Parallelizer verdicts (§2, §5.1): exactly one per examined DO loop.
const (
	ParParallelized  Code = "par-parallelized"
	ParCarriedDep    Code = "par-carried-dep"
	ParBarrier       Code = "par-barrier"
	ParIrregular     Code = "par-irregular-body"
	ParLiveOut       Code = "par-liveout-scalar"
	NestParallelized Code = "nest-parallelized"
	ListParallelized Code = "list-parallelized"
	// ParSchedSerial: spreading was legal, but the loop's schedule pinned
	// it serial (serial_strips) — still this loop's one verdict.
	ParSchedSerial Code = "par-sched-serial"
	// ParDoacross: iterations carry a constant-distance dependence, so
	// the loop was pipelined DOACROSS with post/wait instead of being
	// rejected; args name the dependence and its combined distance.
	ParDoacross Code = "par-doacross"
)

// Strength reduction remarks (§6).
const (
	StrengthReduced Code = "strength-reduced"
)

// Schedule-layer remarks: interchange applied by the vectorizer's
// schedule, and the autotuner's per-loop selection.
const (
	// VectInterchanged: a perfect two-level nest had its headers swapped
	// before vectorization, as directed by the loop's schedule.
	VectInterchanged Code = "vect-interchanged"
	// SchedSelected: the autotuner picked a schedule for a loop, with the
	// measured cycle delta against the default schedule in the args.
	SchedSelected Code = "sched-selected"
)

// Diagnostic is one structured compiler message.
type Diagnostic struct {
	Severity Severity  `json:"severity"`
	Code     Code      `json:"code"`
	Pos      token.Pos `json:"pos"` // source position, 1-based line:col
	Proc     string    `json:"proc,omitempty"`
	Pass     string    `json:"pass,omitempty"` // pipeline pass that emitted it
	Message  string    `json:"message"`
	// Args carries the machine-readable detail: the blocking dependence
	// edge ("dep"), strip length ("vl"), callee name ("callee"), ...
	Args map[string]string `json:"args,omitempty"`
	// InlinedFrom is the call-site position when the diagnostic's Pos is
	// inside a body that inline expansion cloned into Proc.
	InlinedFrom *token.Pos `json:"inlined_from,omitempty"`
}

// String renders the diagnostic in the classic one-line form:
//
//	3:9: remark[vect-vectorized]: loop vectorized with VL=32 (proc daxpy, pass vectorize) {vl=32}
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Message)
	var scope []string
	if d.Proc != "" {
		scope = append(scope, "proc "+d.Proc)
	}
	if d.Pass != "" {
		scope = append(scope, "pass "+d.Pass)
	}
	if len(scope) > 0 {
		fmt.Fprintf(&sb, " (%s)", strings.Join(scope, ", "))
	}
	if d.InlinedFrom != nil {
		fmt.Fprintf(&sb, " [inlined from %s]", *d.InlinedFrom)
	}
	if len(d.Args) > 0 {
		keys := make([]string, 0, len(d.Args))
		for k := range d.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + d.Args[k]
		}
		fmt.Fprintf(&sb, " {%s}", strings.Join(parts, " "))
	}
	return sb.String()
}

// Reporter accumulates diagnostics. The zero value is ready to use; a nil
// *Reporter silently drops everything, so passes report unconditionally.
type Reporter struct {
	mu    sync.Mutex
	diags []Diagnostic
}

// Report appends d.
func (r *Reporter) Report(d Diagnostic) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.diags = append(r.diags, d)
	r.mu.Unlock()
}

// All returns the collected diagnostics sorted deterministically: by
// procedure, then source position, then code. Pass output order is
// nondeterministic (procedures run on a worker pool), so consumers — the
// report JSON, golden tests, /metrics — always see the sorted view.
func (r *Reporter) All() []Diagnostic {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Diagnostic, len(r.diags))
	copy(out, r.diags)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		return a.Code < b.Code
	})
	return out
}

// Len returns the number of diagnostics reported so far.
func (r *Reporter) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.diags)
}
