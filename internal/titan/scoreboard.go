package titan

// Scoreboard is the Titan's dispatch rule, the one place an instruction's
// issue cycle is computed. Instructions dispatch in order, one per cycle
// at best, each at the first cycle the operands it waits for are ready and
// its unit is free; the unit is then busy for the op's occupancy and the
// result ready after its latency, both growing by VScale·VL for a vector
// op. What an op waits for is its opTable row: every operand it reads at
// dispatch and a masked op's governing mask. Store data drains through
// the store buffer and is not waited for, and neither is VL.
//
// The reference engine dispatches through a cpu's Scoreboard; the fast
// engine charges the same fields through decoded byte offsets (engine.go);
// the compiler's list scheduler estimates each block with one, idle at
// the block's start.
type Scoreboard struct {
	sbRegs
	// vecReady is indexed by VRF slot like the file itself, so it is
	// VRF-sized; only its low end is ever live (see vecHi, cpu.vhi).
	vecReady [VRFWords]int64
}

// sbRegs is a Scoreboard apart from its VRF-sized array: what a
// parallel-region fork copies whole.
type sbRegs struct {
	clock     int64           // no instruction dispatches before it
	unit      [NumUnits]int64 // the cycle each unit accepts its next op
	intReady  [NumIntRegs]int64
	fltReady  [NumFltRegs]int64
	maskReady [NumMaskRegs]int64
	// vecHi bounds the vector slots Issue has written since Reset, which
	// clears below it. A machine context is never Reset: cpu.reset clears
	// up to cpu.vhi, which bounds the fast engine's writes too.
	vecHi int
}

// reg is the ready cycle of register n of a file, wrapped into the file
// as the engines wrap it.
func (s *Scoreboard) reg(file RegFile, n int) *int64 {
	switch file {
	case IntReg:
		return &s.intReady[n]
	case FltReg:
		return &s.fltReady[n]
	case VecReg:
		return &s.vecReady[vslot(n)]
	default:
		return &s.maskReady[mslot(n)]
	}
}

// IssueAt is the cycle in would issue at.
func (s *Scoreboard) IssueAt(in *Instr) int64 {
	info := &opTable[in.Op]
	at := max(s.clock, s.unit[info.time.Unit])
	if info.rs1.role == roleUse {
		at = max(at, *s.reg(info.rs1.file, in.Rs1))
	}
	if info.rs2.role == roleUse {
		at = max(at, *s.reg(info.rs2.file, in.Rs2))
	}
	if info.masked {
		at = max(at, s.maskReady[maskReg(*in)])
	}
	return at
}

// Issue dispatches in at vector length vl (at least 1) and returns the
// cycle its result is ready.
func (s *Scoreboard) Issue(in *Instr, vl int64) int64 {
	info := &opTable[in.Op]
	issue := s.IssueAt(in)
	scale := int64(info.time.VScale) * vl
	s.unit[info.time.Unit] = issue + int64(info.time.Occ) + scale
	s.clock = issue + 1
	done := issue + int64(info.time.Lat) + scale
	if info.rd.role == roleDef {
		*s.reg(info.rd.file, in.Rd) = done
		if info.rd.file == VecReg {
			s.vecHi = max(s.vecHi, vslot(in.Rd)+1)
		}
	}
	return done
}

// Latency is the cycles from op's issue at vector length vl until its
// result is ready.
func (s *Scoreboard) Latency(op Op, vl int64) int64 {
	t := &opTable[op].time
	return int64(t.Lat) + int64(t.VScale)*vl
}

// Reset makes s an idle machine's: every unit free and every register
// ready at cycle 0.
func (s *Scoreboard) Reset() {
	clear(s.vecReady[:s.vecHi])
	s.sbRegs = sbRegs{}
}
