// Package schedule is the explicit loop-plan layer: every transformation
// the loop phases (vector, parallel, strength) can apply to a DO loop is
// described by a Schedule value — strip length, unroll factor, loop
// interchange, serial-vs-parallel strips, masking — instead of
// constants baked into each phase. The paper hardwires one strategy
// (strip-mine to 32, no unrolling, spread over every processor);
// Default() reproduces exactly that, and the autotuner (internal/tune)
// searches the schedule space per loop by measuring candidates on the
// fast Titan engine.
//
// A compile has one default schedule, its plan's (pass.Plan.Loops), and a
// loop follows it unless a Set names the loop. Schedules are assigned per
// source loop: a LoopKey is the owning procedure plus the loop's source
// position, which is stable across compiles of the same translation unit
// — that is what lets titand cache tuned schedules by source fingerprint
// and reapply them without re-tuning. A Set is the JSON-serializable
// mapping the tuner produces and the pass pipeline consumes
// (pass.Context.Schedules).
//
// Legality is checked against the same dependence tests the phases use:
// interchange needs a fully permutable perfect nest, unrolling needs a
// countable straight-line body. Check rejects a schedule the phases
// could not apply soundly; the phases additionally keep their own
// guards, so an illegal schedule can only ever degrade to the legal
// subset, never miscompile.
package schedule

import (
	"fmt"
	"strings"

	"repro/internal/titan"
)

// DefaultVL is the paper's strip length: the Titan's vector register
// file holds 8192 words; 32-element strips let four strips of eight
// vector temporaries fit comfortably (§9).
const DefaultVL = 32

// MaxUnroll bounds the unroll factor the schedule layer will apply;
// beyond 8 the replicated bodies blow the instruction cache the §6
// scheduler models without buying further loop-overhead reduction.
const MaxUnroll = 8

// Schedule describes how the loop phases transform one DO loop. The
// zero value is not meaningful; use Default().
type Schedule struct {
	// VL is the strip length vector statements are mined to (§9).
	VL int `json:"vl"`
	// Unroll is the §6 unroll factor for serial loops (1 = no unroll).
	// Unrolling replicates the body in source order, so it is legal even
	// for loops with carried dependences.
	Unroll int `json:"unroll"`
	// Interchange swaps the headers of a perfect two-level nest before
	// vectorization, exposing the outer dimension to the inner phases.
	Interchange bool `json:"interchange,omitempty"`
	// SerialStrips keeps the loop serial even when spreading would be
	// legal — for short loops the fork/join overhead outweighs the
	// spread (§2's "significant speedups" need enough work per strip).
	SerialStrips bool `json:"serial_strips,omitempty"`
	// MaskStrategy directs how conditionals in the loop body are handled
	// ahead of vectorization: "" if-converts and vectorizes under a mask
	// when legal (the default), and MaskBranchy if-converts but keeps the
	// strips scalar (predicated serial execution — profitable when the
	// mask is almost always false and masked vector ops would charge
	// full-density cycles for idle lanes).
	MaskStrategy string `json:"mask_strategy,omitempty"`
}

// MaskBranchy is the one MaskStrategy besides the default "".
const MaskBranchy = "branchy-serial"

// Default is the paper's hardwired strategy: 32-element strips, no
// unrolling, no interchange, spread over every processor when legal.
func Default() Schedule { return Schedule{VL: DefaultVL, Unroll: 1} }

// String renders the schedule compactly, e.g. "vl=32 unroll=4" or
// "vl=64 unroll=1 serial-strips". Used in sched-selected
// remarks and logs; the JSON form is the wire format.
func (s Schedule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vl=%d unroll=%d", s.VL, s.Unroll)
	if s.Interchange {
		sb.WriteString(" interchange")
	}
	if s.SerialStrips {
		sb.WriteString(" serial-strips")
	}
	if s.MaskStrategy != "" {
		fmt.Fprintf(&sb, " mask=%s", s.MaskStrategy)
	}
	return sb.String()
}

// ValidateVL rejects strip lengths outside the hardware range — the
// validation titancc -vl and the titand compile option share.
func ValidateVL(vl int) error {
	if vl < 1 || vl > titan.MaxVL {
		return fmt.Errorf("schedule: strip length %d out of range (the Titan vector register file supports VL 1..%d)", vl, titan.MaxVL)
	}
	return nil
}

// Validate checks the machine-range invariants every schedule must
// satisfy regardless of the loop it is applied to.
func (s Schedule) Validate() error {
	if err := ValidateVL(s.VL); err != nil {
		return err
	}
	if s.Unroll < 1 || s.Unroll > MaxUnroll {
		return fmt.Errorf("schedule: unroll factor %d out of range (1..%d)", s.Unroll, MaxUnroll)
	}
	if s.MaskStrategy != "" && s.MaskStrategy != MaskBranchy {
		return fmt.Errorf("schedule: unknown mask strategy %q (want %q or none)", s.MaskStrategy, MaskBranchy)
	}
	return nil
}

// A Move is one point of the tuner's grid: To is the base schedule with
// one knob, named as String renders it, set to another value.
type Move struct {
	Knob string
	To   Schedule
}

// Moves is the tuner's grid around base, in the order it is offered:
// every schedule one knob away from base — strip lengths 16/32/64/128 and
// serial strips first, and only when spread says the loop's strips may
// spread, then unroll factors 1/2/4/8 and interchange. A setting equal to
// base's is not a move, and the mask strategy is never moved.
func Moves(base Schedule, spread bool) []Move {
	var out []Move
	move := func(knob string, set func(*Schedule)) {
		to := base
		set(&to)
		if to != base {
			out = append(out, Move{knob, to})
		}
	}
	if spread {
		for _, vl := range []int{16, 32, 64, 128} {
			move("vl", func(s *Schedule) { s.VL = vl })
		}
		move("serial-strips", func(s *Schedule) { s.SerialStrips = !s.SerialStrips })
	}
	for _, k := range []int{1, 2, 4, 8} {
		move("unroll", func(s *Schedule) { s.Unroll = k })
	}
	move("interchange", func(s *Schedule) { s.Interchange = !s.Interchange })
	return out
}
