package titan

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// ClockMHz is the nominal clock used to convert simulated cycles to
// simulated seconds for MFLOPS reporting. The Titan's units ran at 16 MHz.
const ClockMHz = 16.0

// Result summarizes a simulation run. Its JSON is the run object titand
// answers with (the service adds only what the host knows).
type Result struct {
	Cycles    int64  `json:"cycles"`
	FlopCount int64  `json:"flops"`
	Instrs    int64  `json:"instrs"`
	ExitCode  int64  `json:"exit_code"`
	Output    string `json:"output,omitempty"`
	// Globals is a CRC-64 of the final globals image,
	// mem[DataBase : DataBase+len(Data)]: the final-memory part of the
	// contract that every build of a program leaves the same state.
	Globals uint64 `json:"globals,string"`
	// SyncStalls is the total cycles processors spent blocked in wait
	// instructions across all parallel regions (DOACROSS pipelining).
	SyncStalls int64 `json:"sync_stall_cycles,omitempty"`
	// MaskOps counts retired masked vector operations (vld.m, vst.m,
	// masked arithmetic); MaskLanesActive / MaskLanesTotal break those
	// down by lane so MaskLanesActive/MaskLanesTotal is the run's mask
	// utilization (1.0 = every masked lane did useful work). Masked ops
	// charge full dense-timing cycles regardless of density, so low
	// utilization is the cost signal the autotuner weighs.
	MaskOps         int64 `json:"mask_ops,omitempty"`
	MaskLanesActive int64 `json:"mask_lanes_active,omitempty"`
	MaskLanesTotal  int64 `json:"mask_lanes_total,omitempty"`
	// Procs is the per-processor busy/stall breakdown over parallel
	// regions: entries beyond the machine's processor count stay zero.
	// A fixed-size array keeps Result comparable with == (the
	// differential engine tests rely on that).
	Procs ProcStats `json:"procs"`
}

// ProcStat is one processor's cycle breakdown over the parallel regions
// of a run: Busy is cycles spent executing, SyncStall is cycles blocked
// in wait instructions, and JoinIdle is cycles idle at region joins
// waiting for the slowest processor.
type ProcStat struct {
	Busy      int64 `json:"busy_cycles"`
	SyncStall int64 `json:"sync_stall_cycles"`
	JoinIdle  int64 `json:"join_idle_cycles"`
}

// ProcStats is a run's ProcStat per processor, indexed by pid. Its JSON
// is the list of processors that did work, each carrying its pid (empty
// for a run that never forked).
type ProcStats [MaxProcessors]ProcStat

// procJSON is one element of ProcStats' JSON list.
type procJSON struct {
	Pid int `json:"pid"`
	ProcStat
}

func (ps ProcStats) MarshalJSON() ([]byte, error) {
	list := make([]procJSON, 0, MaxProcessors)
	for pid := range ps {
		if ps[pid] != (ProcStat{}) {
			list = append(list, procJSON{pid, ps[pid]})
		}
	}
	return json.Marshal(list)
}

// UnmarshalJSON reads the list MarshalJSON writes. Run objects arrive
// from cluster peers, so it refuses, with an error, a pid outside
// [0, MaxProcessors), a repeated pid and an unknown member.
func (ps *ProcStats) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var list []procJSON
	if err := dec.Decode(&list); err != nil {
		return fmt.Errorf("titan: procs: %w", err)
	}
	var out ProcStats
	var seen [MaxProcessors]bool
	for _, p := range list {
		if p.Pid < 0 || p.Pid >= MaxProcessors {
			return fmt.Errorf("titan: procs pid %d out of range [0, %d)", p.Pid, MaxProcessors)
		}
		if seen[p.Pid] {
			return fmt.Errorf("titan: procs pid %d repeated", p.Pid)
		}
		seen[p.Pid] = true
		out[p.Pid] = p.ProcStat
	}
	*ps = out
	return nil
}

// MFLOPS returns millions of floating-point operations per simulated
// second.
func (r Result) MFLOPS() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / (ClockMHz * 1e6)
	return float64(r.FlopCount) / seconds / 1e6
}

// MaxProcessors is the Titan's processor-count ceiling: the machine
// shipped with up to four compute boards sharing memory (§2).
const MaxProcessors = 4

// ValidateProcessors rejects processor counts outside 1..MaxProcessors
// with a descriptive error. Entry points (CLIs, the compile service)
// call this so a bad -p fails loudly instead of being silently clamped
// by NewMachine.
func ValidateProcessors(n int) error {
	if n < 1 || n > MaxProcessors {
		return fmt.Errorf("titan: processor count %d out of range (the Titan supports 1..%d processors)", n, MaxProcessors)
	}
	return nil
}

// Fault is a simulated memory-access error: an out-of-range scalar load
// or store, a strided vector element outside memory, a C-string read
// (printf/puts format or %s argument) from a bad pointer, or a call whose
// frame does not fit above the stack limit. It carries the faulting
// address (for a stack overflow, where the frame would have started, and
// its size) and the function+pc of the instruction that issued the access.
type Fault struct {
	Addr int64
	Size int64
	Kind string // "load", "store", "vector load", "vector store", "cstring", "stack overflow"
	Func string
	PC   int
}

func (e *Fault) Error() string {
	return fmt.Sprintf("titan: fault at addr=%d (%s, size %d) in %s+%d", e.Addr, e.Kind, e.Size, e.Func, e.PC)
}

// Machine simulates one Titan. A Machine is single-use state for one
// Run at a time: concurrent simulations each take their own Machine
// (the Program may be shared freely). Its owner calls Release once the
// Result is taken; a released machine belongs to the next NewMachine and
// must not be touched again. One never released is simply collected.
//
// Memory is one flat image: the program's Data at DataBase, then the
// stack, which starts 8 bytes below the top and grows down. The boundary
// is stackLimit, the page-rounded end of Data: a call whose frame would
// start below it faults instead of overwriting globals.
type Machine struct {
	prog       *Program
	mem        []byte
	stackLimit int64
	// Processors sets the processor count for parallel regions (1–4).
	Processors int
	// Trace, when non-nil, receives a line per retired instruction.
	// Tracing runs on the reference interpreter, whose per-instruction
	// loop carries the hook; Run falls back to it automatically.
	Trace func(string)
	// MaxInstrs guards against runaway programs (0: default bound).
	MaxInstrs int64
	// ReverseRegions makes the reference engine run a parallel region's
	// processors round-robin in descending pid order, p-1 … 0. Simulated
	// time does not depend on that host order; only memory written by a
	// race does, so a program whose result differs between the two
	// orders has a race between processors. The fast engine ignores it.
	ReverseRegions bool

	out strings.Builder

	// Scratch block for both engines' parallel-region forks (enterRegion):
	// it comes with the machine and is reused by every region, so a run
	// with many regions never allocates the ~130 KB per-processor contexts
	// or the synchronization fabric. scratchBusy arbitrates the rare
	// nested or concurrent claim, which falls back to a fresh block.
	scratch     *regionScratch
	scratchBusy atomic.Bool

	// root is a run's top-level cpu (see begin), built with the machine so
	// neither engine allocates one. A second run on the same machine (it
	// continues from the memory the first left, but callers may) gets a
	// fresh cpu instead.
	root     *cpu
	rootUsed bool

	// procStats accumulates the per-processor busy/stall/idle breakdown
	// at every parallel-region join. Updated with atomics: joins of
	// nested regions can run on sibling goroutines in the fast engine.
	procStats [MaxProcessors]ProcStat
}

// recordProcStat folds one processor's region deltas into the machine
// totals at a region join.
func (m *Machine) recordProcStat(pid int, busy, stall, joinIdle int64) {
	atomic.AddInt64(&m.procStats[pid].Busy, busy)
	atomic.AddInt64(&m.procStats[pid].SyncStall, stall)
	atomic.AddInt64(&m.procStats[pid].JoinIdle, joinIdle)
}

// regionScratch is the reusable per-region fork state: processor
// contexts for pids 1.. (pid 0 runs on the parent cpu), per-pid output
// sinks and error slots, the DOACROSS fabric and the join's WaitGroup.
type regionScratch struct {
	subs   []cpu // at least Processors-1
	outs   [MaxProcessors]strings.Builder
	errs   [MaxProcessors]error
	fabric syncState
	wg     sync.WaitGroup
}

func newRegionScratch(processors int) *regionScratch {
	s := &regionScratch{subs: make([]cpu, processors-1)}
	s.fabric.reset(0)
	return s
}

// reset clears everything a previous owner left in s, every context to
// its live extent and the fabric's histories to their capacity, and
// makes it hold at least processors-1 contexts.
func (s *regionScratch) reset(processors int) {
	for i := range s.subs {
		s.subs[i].reset()
	}
	if len(s.subs) < processors-1 {
		s.subs = make([]cpu, processors-1)
	}
	for i := range s.outs {
		s.outs[i].Reset()
	}
	clear(s.errs[:])
	s.fabric.clear()
}

// claimScratch hands out the machine's region scratch block, or a fresh
// one if it is already claimed (nested parallel regions).
func (m *Machine) claimScratch() *regionScratch {
	if m.scratchBusy.CompareAndSwap(false, true) {
		if m.scratch == nil {
			m.scratch = newRegionScratch(m.Processors)
		}
		return m.scratch
	}
	return newRegionScratch(m.Processors)
}

func (m *Machine) releaseScratch(s *regionScratch) {
	if s == m.scratch {
		m.scratchBusy.Store(false)
	}
}

// machines holds released machines for NewMachine to reuse: the image,
// the root cpu and the region scratch are what a machine costs to build
// (a page fault per 4 KB of image, ~130 KB per context), and a search or a
// server builds thousands. It is a plain bounded free list, not a
// sync.Pool: a collection empties a sync.Pool, and a compile server's
// heap is small enough next to what a compile allocates that one comes
// every few requests — there the pool would never have a machine to give.
var machines struct {
	sync.Mutex
	free []*Machine
}

// maxPooledImage is the largest image kept with a released machine; a
// program with more memory than this takes its image with it.
const maxPooledImage = 16 << 20

// NewMachine loads a program into a machine: a released one when there
// is any, else a new one. Reuse is invisible (see load).
func NewMachine(prog *Program, processors int) *Machine {
	var m *Machine
	machines.Lock()
	if n := len(machines.free); n > 0 {
		m, machines.free = machines.free[n-1], machines.free[:n-1]
	}
	machines.Unlock()
	if m == nil {
		m = new(Machine)
	}
	m.load(prog, processors)
	return m
}

// load makes m, new or recycled, a machine holding prog and nothing else.
// Everything a previous owner — possibly another tenant's program — could
// have left is cleared before the new program sees it: the whole image to
// its exact new length, every processor context, the output, the
// statistics and the public knobs; only the allocations survive. Clearing
// just what the last run dirtied of the image would be cheaper and is not
// done: a wild store lands anywhere, so the ranges would have to be
// tracked on every simulated store to be trusted. A context's vector file
// is another matter — no store lands outside its live extent (see
// cpuState.vhi) — so a context is cleared over that extent only.
func (m *Machine) load(prog *Program, processors int) {
	if processors < 1 {
		processors = 1
	}
	if processors > MaxProcessors {
		processors = MaxProcessors
	}
	dataEnd := prog.DataBase + int64(len(prog.Data))
	size := prog.MemSize
	if size < dataEnd+1<<16 {
		size = dataEnd + 1<<16
	}
	mem, root, scratch := m.mem, m.root, m.scratch
	*m = Machine{prog: prog, Processors: processors, stackLimit: PageAlign(dataEnd)}
	if int64(cap(mem)) >= size {
		mem = mem[:size]
		clear(mem)
	} else {
		mem = make([]byte, size)
	}
	if root != nil {
		root.reset()
	} else {
		root = new(cpu)
	}
	if scratch != nil {
		scratch.reset(processors)
	} else if processors > 1 {
		// The region scratch comes with the machine so parallel regions
		// never allocate at run time.
		scratch = newRegionScratch(processors)
	}
	m.mem, m.root, m.scratch = mem, root, scratch
	copy(m.mem[prog.DataBase:], prog.Data)
}

// Release hands the machine's state over for a later NewMachine. Call it
// once the Result is taken, on error paths too; the machine must not be
// used afterwards (a second Release is a no-op). As many machines are kept
// as can run at once, GOMAXPROCS; the rest are left to the collector.
func (m *Machine) Release() {
	if m.prog == nil {
		return
	}
	// Dropped now so a kept machine pins neither the program nor the
	// caller's closure; everything else is cleared when it is drawn.
	m.prog, m.Trace = nil, nil
	if cap(m.mem) > maxPooledImage {
		m.mem = nil
	}
	machines.Lock()
	if len(machines.free) < runtime.GOMAXPROCS(0) {
		machines.free = append(machines.free, m)
	}
	machines.Unlock()
}

// maxCallDepth bounds call nesting where the stack limit cannot: a callee
// with no frame moves no stack pointer, and the engines recurse on the
// host stack. It is the depth 8-byte frames reach in the smallest stack.
const maxCallDepth = 32 << 10

// openFrame checks that the call (or the run's entry) at fn+pc may open a
// frame of the given size: it must start at or above the stack limit.
func (c *cpu) openFrame(frame int64, fn string, pc int) error {
	if sp := c.r[RegSP] - frame; sp < c.m.stackLimit || c.depth >= maxCallDepth {
		return &Fault{Addr: sp, Size: frame, Kind: "stack overflow", Func: fn, PC: pc}
	}
	return nil
}

// cpu is one processor context: its cpuState, and the vector register
// file and Scoreboard, of whose VRF-sized arrays only the live extent
// [0, vhi) is ever copied or cleared (see copyLive). Fixed arrays, so a
// fork allocates nothing.
type cpu struct {
	cpuState
	vrf [VRFWords]float64
	Scoreboard
}

// cpuState is a processor context apart from the vector file and the
// scoreboard. It is copied whole at parallel-region forks, so every field
// must be value state; shared state reaches it through m (the memory
// slab) and out (the output sink).
type cpuState struct {
	m   *Machine
	out *strings.Builder
	r   [NumIntRegs]int64
	f   [NumFltRegs]float64
	// mk is the vector-mask register file: one bit per lane, packed into
	// uint64 words. A fixed array so parallel-region forks stay plain
	// struct copies. Compares write bits for lanes [0, vl) and clear the
	// rest, so a mask register has no bits beyond the vl that produced it
	// (a later, shorter vsetl leaves some: readers clip to vl).
	mk [NumMaskRegs][maskWords]uint64
	vl int64
	// vhi bounds the live extent of vrf and vecReady: every word at or
	// past it is zero in both. Every write to either lands at an
	// instruction's static slot plus a lane below vl, wrapped into the
	// file, so the program's highest slot + 1 (Program.vregs) plus the
	// largest vl this context has set, capped at VRFWords, is such a
	// bound. vsetl keeps it; no store has to.
	vhi int
	// vlc is vl clamped to at least 1, the value the timing model and
	// FLOP accounting use. The fast engine keeps it alongside vl
	// (updated at Vsetl, 1 at entry) so the per-instruction charge
	// needs no clamp branch; the reference interpreter clamps inline
	// and ignores this field.
	vlc  int64
	pid  int64
	args []argval
	// depth is the call nesting below the run's entry (see maxCallDepth).
	depth int

	// DOACROSS synchronization: sync is the enclosing parallel region's
	// fabric (nil outside regions), inRegionFrame says whether this
	// frame is the region's own (post/wait inside a called function are
	// rejected — the region scheduler could not resume mid-call),
	// syncStall accumulates cycles blocked in waits, and parkedPC is the
	// wait exec stopped at when it last returned errWaitBlocked.
	sync          *syncState
	inRegionFrame bool
	syncStall     int64
	parkedPC      int

	cycles int64 // completion horizon
	flops  int64
	icount int64

	// Mask-lane utilization counters (Result.MaskOps etc.): pooled at
	// parallel-region joins exactly like flops.
	maskOps    int64
	maskActive int64
	maskTotal  int64

	// Scratch scoreboard slots for the fast engine's branchless charge
	// (engine.go): decoded instructions carry byte offsets into this
	// struct for their operand ready-times and destination; ops without
	// an operand read sbZero (never written, so never a constraint) and
	// ops without a destination write sbSink (never read).
	sbZero int64
	sbSink int64
}

type argval struct {
	i     int64
	f     float64
	isFlt bool
}

// setVL is vsetl: vl ← n clamped to [0, MaxVL], the live extent grown to
// cover the lanes it opens.
func (c *cpu) setVL(n int64) {
	c.vl = min(max(n, 0), MaxVL)
	if h := c.m.prog.vregs + int(c.vl); h > c.vhi {
		c.vhi = min(h, VRFWords)
	}
}

// copyLive makes c a copy of src: all but the VRF-sized arrays whole,
// those over src's live extent, and what c held past it cleared, so that
// every word past c.vhi is zero again.
func (c *cpu) copyLive(src *cpu) {
	if c.vhi > src.vhi {
		clear(c.vrf[src.vhi:c.vhi])
		clear(c.vecReady[src.vhi:c.vhi])
	}
	c.cpuState, c.sbRegs = src.cpuState, src.sbRegs
	copy(c.vrf[:c.vhi], src.vrf[:c.vhi])
	copy(c.vecReady[:c.vhi], src.vecReady[:c.vhi])
}

// reset makes c a new context: zero over its live extent and elsewhere.
func (c *cpu) reset() {
	clear(c.vrf[:c.vhi])
	clear(c.vecReady[:c.vhi])
	c.cpuState, c.sbRegs = cpuState{}, sbRegs{}
}

// vslot maps an arbitrary slot index into the vector register file,
// wrapping the way the per-element accesses always have and tolerating
// negative indices instead of panicking.
func vslot(i int) int {
	i %= VRFWords
	if i < 0 {
		i += VRFWords
	}
	return i
}

// mslot maps an arbitrary mask-register index into the mask file, with
// the same wrap-don't-panic policy as vslot.
func mslot(i int) int {
	i %= NumMaskRegs
	if i < 0 {
		i += NumMaskRegs
	}
	return i
}

// maskReg extracts the governing mask-register index a masked
// instruction carries in Imm bits 8 and up.
func maskReg(in Instr) int { return mslot(int(in.Imm >> 8)) }

// maskBit reports whether lane k is active in mask register mr.
func (c *cpu) maskBit(mr int, k int64) bool {
	return c.mk[mr][k>>6]&(1<<uint(k&63)) != 0
}

// countMask charges the lane-utilization counters for one retired masked
// operation over the current vector length.
func (c *cpu) countMask(mr int) {
	active := int64(0)
	for w := 0; int64(w)*64 < c.vl; w++ {
		active += int64(bits.OnesCount64(c.laneWord(mr, w)))
	}
	c.maskOps++
	c.maskActive += active
	c.maskTotal += c.vl
}

// maskAllTrue reports whether every lane in [0, vl) is active in mask
// register mr — the gate for the fast engine's dense slab kernels.
func (c *cpu) maskAllTrue(mr int) bool {
	for k := int64(0); k < c.vl; k += 64 {
		w := c.mk[mr][k>>6]
		if rem := c.vl - k; rem < 64 {
			w |= ^(1<<uint(rem) - 1)
		}
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// Run executes main (or the named entry) to completion on the fast
// engine (engine.go): pre-decoded dispatch, slab vector kernels, and
// goroutine-backed parallel regions. Result is bit-identical to
// RunReference by construction; the differential tests enforce it.
// A non-nil Trace falls back to the reference interpreter, whose
// per-instruction loop carries the hook.
func (m *Machine) Run(entry string) (Result, error) {
	if m.Trace != nil {
		return m.RunReference(entry)
	}
	return m.runFastEntry(entry)
}

// RunReference executes on the reference interpreter: one instruction
// at a time through the original dispatch/exec pair, parallel regions
// serialized processor by processor. It defines the simulator's
// semantics; the fast engine is validated against it.
func (m *Machine) RunReference(entry string) (Result, error) {
	f, ok := m.prog.Funcs[entry]
	if !ok {
		return Result{}, fmt.Errorf("titan: no function %q", entry)
	}
	m.prog.decode() // for vregs
	c, maxInstrs, err := m.begin(entry, f.Frame)
	if err != nil {
		return Result{}, err
	}
	if err := c.exec(f, 0, -1, maxInstrs); err != nil {
		return Result{}, err
	}
	return m.result(c), nil
}

// begin makes the root context of a run of entry, whose frame it checks
// against the stack, and returns it with the run's instruction budget. The
// context is the machine's root cpu, so a run allocates none; a second
// run on the same machine gets a fresh one.
func (m *Machine) begin(entry string, frame int64) (c *cpu, maxInstrs int64, err error) {
	c = m.root
	if m.rootUsed {
		c = new(cpu)
	}
	m.rootUsed = true
	c.m = m
	c.out = &m.out
	c.vlc = 1
	c.vhi = m.prog.vregs
	c.r[RegSP] = int64(len(m.mem)) - 8
	maxInstrs = m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 2_000_000_000
	}
	return c, maxInstrs, c.openFrame(frame, entry, 0)
}

// globalsTable is the CRC-64 table Result.Globals is computed with.
var globalsTable = crc64.MakeTable(crc64.ECMA)

// result is what a finished run reports, read off its root context.
func (m *Machine) result(c *cpu) Result {
	var stalls int64
	for i := range m.procStats {
		stalls += m.procStats[i].SyncStall
	}
	return Result{
		Cycles:          c.cycles,
		FlopCount:       c.flops,
		Instrs:          c.icount,
		ExitCode:        c.r[RegRetInt],
		Output:          m.out.String(),
		Globals:         crc64.Checksum(m.mem[m.prog.DataBase:m.prog.DataBase+int64(len(m.prog.Data))], globalsTable),
		SyncStalls:      stalls,
		MaskOps:         c.maskOps,
		MaskLanesActive: c.maskActive,
		MaskLanesTotal:  c.maskTotal,
		Procs:           m.procStats,
	}
}

// dispatch issues one instruction at c's vector length, counts its FLOPs
// and returns the cycle at which its result is ready.
func (c *cpu) dispatch(in Instr) int64 {
	vl := max(c.vl, 1)
	done := c.Issue(&in, vl)
	c.cycles = max(c.cycles, done)
	switch opTable[in.Op].flops {
	case flopOne:
		c.flops++
	case flopPerLane:
		c.flops += vl
	}
	return done
}

// exec runs instructions of f starting at pc until RET/HALT (stop == -1)
// or until reaching instruction index stop (used by parallel regions).
func (c *cpu) exec(f *Func, pc int, stop int, maxInstrs int64) error {
	for pc < len(f.Instrs) {
		if pc == stop {
			return nil
		}
		if c.icount >= maxInstrs {
			return fmt.Errorf("titan: instruction budget exhausted in %s (possible infinite loop)", f.Name)
		}
		in := f.Instrs[pc]
		if in.Op == OpWait && c.sync != nil && c.inRegionFrame {
			// An unsatisfied wait charges nothing and retires nothing:
			// the region scheduler parks this processor here and retries
			// after other processors have run (see parallelRegion).
			cell := c.r[in.Rs1]
			if cell >= 0 && cell < NumSyncCells {
				if _, ok := c.sync.peek(int(cell), c.r[in.Rs2]); !ok {
					c.parkedPC = pc
					return errWaitBlocked
				}
			}
		}
		c.icount++
		done := c.dispatch(in)
		if c.m.Trace != nil {
			c.m.Trace(fmt.Sprintf("%s+%d: %s", f.Name, pc, in))
		}
		switch in.Op {
		case OpNop:
		case OpLdi:
			c.r[in.Rd] = in.Imm
		case OpMov:
			c.r[in.Rd] = c.r[in.Rs1]
		case OpAdd:
			c.r[in.Rd] = c.r[in.Rs1] + c.r[in.Rs2]
		case OpSub:
			c.r[in.Rd] = c.r[in.Rs1] - c.r[in.Rs2]
		case OpMul:
			c.r[in.Rd] = c.r[in.Rs1] * c.r[in.Rs2]
		case OpDiv:
			if c.r[in.Rs2] == 0 {
				return fmt.Errorf("titan: integer division by zero in %s", f.Name)
			}
			c.r[in.Rd] = c.r[in.Rs1] / c.r[in.Rs2]
		case OpRem:
			if c.r[in.Rs2] == 0 {
				return fmt.Errorf("titan: integer remainder by zero in %s", f.Name)
			}
			c.r[in.Rd] = c.r[in.Rs1] % c.r[in.Rs2]
		case OpAnd:
			c.r[in.Rd] = c.r[in.Rs1] & c.r[in.Rs2]
		case OpOr:
			c.r[in.Rd] = c.r[in.Rs1] | c.r[in.Rs2]
		case OpXor:
			c.r[in.Rd] = c.r[in.Rs1] ^ c.r[in.Rs2]
		case OpShl:
			c.r[in.Rd] = c.r[in.Rs1] << uint(c.r[in.Rs2]&63)
		case OpShr:
			c.r[in.Rd] = c.r[in.Rs1] >> uint(c.r[in.Rs2]&63)
		case OpAddi:
			c.r[in.Rd] = c.r[in.Rs1] + in.Imm
		case OpMuli:
			c.r[in.Rd] = c.r[in.Rs1] * in.Imm
		case OpNeg:
			c.r[in.Rd] = -c.r[in.Rs1]
		case OpNot:
			c.r[in.Rd] = b2i(c.r[in.Rs1] == 0)
		case OpBnot:
			c.r[in.Rd] = ^c.r[in.Rs1]
		case OpCmpEq:
			c.r[in.Rd] = b2i(c.r[in.Rs1] == c.r[in.Rs2])
		case OpCmpNe:
			c.r[in.Rd] = b2i(c.r[in.Rs1] != c.r[in.Rs2])
		case OpCmpLt:
			c.r[in.Rd] = b2i(c.r[in.Rs1] < c.r[in.Rs2])
		case OpCmpLe:
			c.r[in.Rd] = b2i(c.r[in.Rs1] <= c.r[in.Rs2])
		case OpCmpGt:
			c.r[in.Rd] = b2i(c.r[in.Rs1] > c.r[in.Rs2])
		case OpCmpGe:
			c.r[in.Rd] = b2i(c.r[in.Rs1] >= c.r[in.Rs2])
		case OpPid:
			c.r[in.Rd] = c.pid
		case OpNproc:
			c.r[in.Rd] = int64(c.m.Processors)

		case OpLd1:
			a, err := c.addr(in, 1, "load", f.Name, pc)
			if err != nil {
				return err
			}
			c.r[in.Rd] = int64(int8(c.m.mem[a]))
		case OpLd2:
			a, err := c.addr(in, 2, "load", f.Name, pc)
			if err != nil {
				return err
			}
			c.r[in.Rd] = int64(int16(binary.LittleEndian.Uint16(c.m.mem[a:])))
		case OpLd4:
			a, err := c.addr(in, 4, "load", f.Name, pc)
			if err != nil {
				return err
			}
			c.r[in.Rd] = int64(int32(binary.LittleEndian.Uint32(c.m.mem[a:])))
		case OpSt1:
			a, err := c.addr(in, 1, "store", f.Name, pc)
			if err != nil {
				return err
			}
			c.m.mem[a] = byte(c.r[in.Rs2])
		case OpSt2:
			a, err := c.addr(in, 2, "store", f.Name, pc)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint16(c.m.mem[a:], uint16(c.r[in.Rs2]))
		case OpSt4:
			a, err := c.addr(in, 4, "store", f.Name, pc)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(c.m.mem[a:], uint32(c.r[in.Rs2]))
		case OpFld4:
			a, err := c.addr(in, 4, "load", f.Name, pc)
			if err != nil {
				return err
			}
			c.f[in.Rd] = float64(math.Float32frombits(binary.LittleEndian.Uint32(c.m.mem[a:])))
		case OpFld8:
			a, err := c.addr(in, 8, "load", f.Name, pc)
			if err != nil {
				return err
			}
			c.f[in.Rd] = math.Float64frombits(binary.LittleEndian.Uint64(c.m.mem[a:]))
		case OpFst4:
			a, err := c.addr(in, 4, "store", f.Name, pc)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(c.m.mem[a:], math.Float32bits(float32(c.f[in.Rs2])))
		case OpFst8:
			a, err := c.addr(in, 8, "store", f.Name, pc)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(c.m.mem[a:], math.Float64bits(c.f[in.Rs2]))

		case OpLd8:
			a, err := c.addr(in, 8, "load", f.Name, pc)
			if err != nil {
				return err
			}
			c.r[in.Rd] = int64(binary.LittleEndian.Uint64(c.m.mem[a:]))
		case OpSt8:
			a, err := c.addr(in, 8, "store", f.Name, pc)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(c.m.mem[a:], uint64(c.r[in.Rs2]))

		case OpFldi:
			c.f[in.Rd] = in.FImm
		case OpFmov:
			c.f[in.Rd] = c.f[in.Rs1]
		case OpFadd:
			c.f[in.Rd] = c.f[in.Rs1] + c.f[in.Rs2]
		case OpFsub:
			c.f[in.Rd] = c.f[in.Rs1] - c.f[in.Rs2]
		case OpFmul:
			c.f[in.Rd] = c.f[in.Rs1] * c.f[in.Rs2]
		case OpFdiv:
			c.f[in.Rd] = c.f[in.Rs1] / c.f[in.Rs2]
		case OpFneg:
			c.f[in.Rd] = -c.f[in.Rs1]
		case OpFcmpEq:
			c.r[in.Rd] = b2i(c.f[in.Rs1] == c.f[in.Rs2])
		case OpFcmpNe:
			c.r[in.Rd] = b2i(c.f[in.Rs1] != c.f[in.Rs2])
		case OpFcmpLt:
			c.r[in.Rd] = b2i(c.f[in.Rs1] < c.f[in.Rs2])
		case OpFcmpLe:
			c.r[in.Rd] = b2i(c.f[in.Rs1] <= c.f[in.Rs2])
		case OpFcmpGt:
			c.r[in.Rd] = b2i(c.f[in.Rs1] > c.f[in.Rs2])
		case OpFcmpGe:
			c.r[in.Rd] = b2i(c.f[in.Rs1] >= c.f[in.Rs2])
		case OpCvtIF:
			c.f[in.Rd] = float64(c.r[in.Rs1])
		case OpCvtFI:
			c.r[in.Rd] = int64(c.f[in.Rs1])

		case OpVsetl:
			c.setVL(c.r[in.Rs1])
		case OpVld, OpVst, OpVldm, OpVstm:
			if err := c.vecMem(in, f.Name, pc); err != nil {
				return err
			}
		case OpVadd, OpVaddm:
			c.vecBin(in, func(a, b float64) float64 { return a + b })
		case OpVsub, OpVsubm:
			c.vecBin(in, func(a, b float64) float64 { return a - b })
		case OpVmul, OpVmulm:
			c.vecBin(in, func(a, b float64) float64 { return a * b })
		case OpVdiv, OpVdivm:
			c.vecBin(in, func(a, b float64) float64 { return a / b })
		case OpVadds:
			c.vecScalar(in, func(a, s float64) float64 { return a + s })
		case OpVsubs:
			c.vecScalar(in, func(a, s float64) float64 { return a - s })
		case OpVsubsr:
			c.vecScalar(in, func(a, s float64) float64 { return s - a })
		case OpVmuls:
			c.vecScalar(in, func(a, s float64) float64 { return a * s })
		case OpVdivs:
			c.vecScalar(in, func(a, s float64) float64 { return a / s })
		case OpVdivsr:
			c.vecScalar(in, func(a, s float64) float64 { return s / a })
		case OpVmov:
			for k := int64(0); k < c.vl; k++ {
				c.vrf[vslot(in.Rd+int(k))] = c.vrf[vslot(in.Rs1+int(k))]
			}
		case OpVbcast:
			for k := int64(0); k < c.vl; k++ {
				c.vrf[vslot(in.Rd+int(k))] = c.f[in.Rs1]
			}

		case OpVcmpLt:
			c.vecCmpVV(in, func(a, b float64) bool { return a < b })
		case OpVcmpLe:
			c.vecCmpVV(in, func(a, b float64) bool { return a <= b })
		case OpVcmpEq:
			c.vecCmpVV(in, func(a, b float64) bool { return a == b })
		case OpVcmpNe:
			c.vecCmpVV(in, func(a, b float64) bool { return a != b })
		case OpVcmpLts:
			c.vecCmpVS(in, func(a, s float64) bool { return a < s })
		case OpVcmpLes:
			c.vecCmpVS(in, func(a, s float64) bool { return a <= s })
		case OpVcmpEqs:
			c.vecCmpVS(in, func(a, s float64) bool { return a == s })
		case OpVcmpNes:
			c.vecCmpVS(in, func(a, s float64) bool { return a != s })
		case OpMand:
			c.maskCombine(in, func(a, b uint64) uint64 { return a & b })
		case OpMor:
			c.maskCombine(in, func(a, b uint64) uint64 { return a | b })
		case OpMnot:
			c.maskCombine(in, func(a, _ uint64) uint64 { return ^a })

		case OpJmp, OpBeqz, OpBnez:
			if in.Op == OpJmp || (in.Op == OpBeqz) == (c.r[in.Rs1] == 0) {
				t, ok := f.Labels[in.Sym]
				if !ok {
					return fmt.Errorf("titan: unknown label %q in %s", in.Sym, f.Name)
				}
				pc = t
				continue
			}
		case OpArg:
			c.args = append(c.args, argval{i: c.r[in.Rs1]})
		case OpFarg:
			c.args = append(c.args, argval{f: c.f[in.Rs1], isFlt: true})
		case OpCall:
			if err := c.call(in.Sym, f.Name, pc, maxInstrs); err != nil {
				return err
			}
		case OpRet, OpHalt:
			return nil

		case OpParBegin:
			end := matchParEnd(f.Instrs, pc)
			if end < 0 {
				return fmt.Errorf("titan: unmatched par.begin in %s", f.Name)
			}
			if err := c.parallelRegion(f, pc+1, end, maxInstrs); err != nil {
				return err
			}
			pc = end + 1
			continue
		case OpParEnd:
			// Reached only inside parallelRegion via stop; at top level it
			// is a stray marker.
			return fmt.Errorf("titan: stray par.end in %s", f.Name)

		case OpPost:
			if c.sync == nil || !c.inRegionFrame {
				return fmt.Errorf("titan: post outside parallel region in %s", f.Name)
			}
			cell := c.r[in.Rs1]
			if cell < 0 || cell >= NumSyncCells {
				return &Fault{Addr: cell, Size: 8, Kind: "sync post", Func: f.Name, PC: pc}
			}
			c.sync.post(int(cell), c.r[in.Rs2], done)
		case OpWait:
			if c.sync == nil || !c.inRegionFrame {
				return fmt.Errorf("titan: wait outside parallel region in %s", f.Name)
			}
			cell := c.r[in.Rs1]
			if cell < 0 || cell >= NumSyncCells {
				return &Fault{Addr: cell, Size: 8, Kind: "sync wait", Func: f.Name, PC: pc}
			}
			// Satisfied (the pre-dispatch peek passed): the wait's data
			// arrives waitLatency after the releasing post completed, or
			// at the wait's own latency if the post was already old.
			t, _ := c.sync.peek(int(cell), c.r[in.Rs2])
			if eff := t + waitLatency; eff > done {
				c.syncStall += eff - done
				c.clock = eff
				if eff > c.cycles {
					c.cycles = eff
				}
			}

		default:
			return fmt.Errorf("titan: unimplemented op %v", in.Op)
		}
		pc++
	}
	return nil
}

func (c *cpu) addr(in Instr, size int64, kind, fn string, pc int) (int64, error) {
	a := c.r[in.Rs1] + in.Imm
	if a < 0 || a+size > int64(len(c.m.mem)) || a+size < a {
		return 0, &Fault{Addr: a, Size: size, Kind: kind, Func: fn, PC: pc}
	}
	return a, nil
}

// vecMem is the per-lane walk of vld, vst, vld.m and vst.m: each lane's
// address is checked and its element converted on its own. Under a mask,
// inactive lanes touch no memory (no bounds check either — lane suppression
// extends to faults) and, loading, keep the destination slot's prior
// contents. A fault names the faulting lane's own address.
func (c *cpu) vecMem(in Instr, fn string, pc int) error {
	info := &opTable[in.Op]
	store := info.mem == MemStore
	kind, mr := in.Imm, -1
	what := [2]string{"vector load", "vector store"}
	if info.masked {
		kind &= 0xff
		mr = maskReg(in)
		c.countMask(mr)
		what = [2]string{"masked vector load", "masked vector store"}
	}
	width := elemWidth(kind)
	base, stride := c.r[in.Rs1], c.r[in.Rs2]
	for k := int64(0); k < c.vl; k++ {
		if mr >= 0 && !c.maskBit(mr, k) {
			continue
		}
		if width == 0 {
			return fmt.Errorf("titan: bad vector element kind %d", kind)
		}
		a := base + k*stride
		if a < 0 || a+width > int64(len(c.m.mem)) {
			return &Fault{Addr: a, Size: width, Kind: what[b2i(store)], Func: fn, PC: pc}
		}
		v := &c.vrf[vslot(in.Rd+int(k))]
		if store {
			storeElem(c.m.mem[a:], kind, *v)
		} else {
			*v = loadElem(c.m.mem[a:], kind)
		}
	}
	return nil
}

// loadElem reads one vector element of a valid kind from the front of at.
func loadElem(at []byte, kind int64) float64 {
	switch kind {
	case ElemF32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(at)))
	case ElemF64:
		return math.Float64frombits(binary.LittleEndian.Uint64(at))
	default: // ElemI32
		return float64(int32(binary.LittleEndian.Uint32(at)))
	}
}

// storeElem writes v as one vector element of a valid kind to the front
// of at.
func storeElem(at []byte, kind int64, v float64) {
	switch kind {
	case ElemF32:
		binary.LittleEndian.PutUint32(at, math.Float32bits(float32(v)))
	case ElemF64:
		binary.LittleEndian.PutUint64(at, math.Float64bits(v))
	default: // ElemI32
		binary.LittleEndian.PutUint32(at, uint32(int32(v)))
	}
}

// vecBin applies f lane by lane; under a mask (vadd.m and its like) on
// active lanes only, inactive destination lanes keeping their prior
// contents.
func (c *cpu) vecBin(in Instr, f func(a, b float64) float64) {
	mr := -1
	if opTable[in.Op].masked {
		mr = maskReg(in)
		c.countMask(mr)
	}
	for k := int64(0); k < c.vl; k++ {
		if mr >= 0 && !c.maskBit(mr, k) {
			continue
		}
		c.vrf[vslot(in.Rd+int(k))] = f(
			c.vrf[vslot(in.Rs1+int(k))],
			c.vrf[vslot(in.Rs2+int(k))])
	}
}

func (c *cpu) vecScalar(in Instr, f func(a, s float64) float64) {
	s := c.f[in.Rs2]
	for k := int64(0); k < c.vl; k++ {
		c.vrf[vslot(in.Rd+int(k))] = f(c.vrf[vslot(in.Rs1+int(k))], s)
	}
}

// setMask writes a freshly computed mask: bits [0, vl) from set, all
// higher bits cleared, so mask registers never carry stale lanes.
func (c *cpu) setMask(mr int, set func(k int64) bool) {
	var out [maskWords]uint64
	for k := int64(0); k < c.vl; k++ {
		if set(k) {
			out[k>>6] |= 1 << uint(k&63)
		}
	}
	c.mk[mr] = out
}

func (c *cpu) vecCmpVV(in Instr, f func(a, b float64) bool) {
	c.setMask(mslot(in.Rd), func(k int64) bool {
		return f(c.vrf[vslot(in.Rs1+int(k))], c.vrf[vslot(in.Rs2+int(k))])
	})
}

func (c *cpu) vecCmpVS(in Instr, f func(a, s float64) bool) {
	s := c.f[in.Rs2]
	c.setMask(mslot(in.Rd), func(k int64) bool {
		return f(c.vrf[vslot(in.Rs1+int(k))], s)
	})
}

// maskCombine applies a word-wise combinator over the active VL lanes
// (mnot passes the same function with the second operand ignored) and
// clears everything beyond them, preserving the canonical-mask
// invariant compares establish.
func (c *cpu) maskCombine(in Instr, f func(a, b uint64) uint64) {
	a := &c.mk[mslot(in.Rs1)]
	b := &c.mk[mslot(in.Rs2)]
	var out [maskWords]uint64
	for w := 0; w*64 < int(c.vl); w++ {
		v := f(a[w], b[w])
		if rem := c.vl - int64(w*64); rem < 64 {
			v &= 1<<uint(rem) - 1
		}
		out[w] = v
	}
	c.mk[mslot(in.Rd)] = out
}

// call implements register-windowed calls plus runtime intrinsics. fn
// and pc locate the call site for fault attribution.
func (c *cpu) call(name, fn string, pc int, maxInstrs int64) error {
	if handled, err := c.intrinsic(name, fn, pc); handled {
		return err
	}
	callee, ok := c.m.prog.Funcs[name]
	if !ok {
		return fmt.Errorf("titan: call to undefined function %q", name)
	}
	var w window
	if err := c.pushWindow(&w, callee.Frame, fn, pc); err != nil {
		return err
	}
	if err := c.exec(callee, 0, -1, maxInstrs); err != nil {
		return err
	}
	c.popWindow(&w)
	return nil
}

// window is what a call saves of its caller: the hardware's register
// window, and whether the caller was a parallel region's own frame.
type window struct {
	r             [NumIntRegs]int64
	f             [NumFltRegs]float64
	inRegionFrame bool
}

// pushWindow opens a call from fn+pc to a callee with the given frame: the
// stack check (see openFrame), then the caller's registers saved into w,
// the argument list handed over and the depth counted. The callee is not
// the parallel region's own frame: post/wait inside it are rejected (the
// region scheduler cannot park mid-call). Both engines call through this
// pair and run the callee in between.
func (c *cpu) pushWindow(w *window, frame int64, fn string, pc int) error {
	if err := c.openFrame(frame, fn, pc); err != nil {
		return err
	}
	w.r, w.f, w.inRegionFrame = c.r, c.f, c.inRegionFrame
	c.inRegionFrame = false
	c.args = nil
	c.depth++
	return nil
}

// popWindow returns from a call: everything the caller had, except the
// result registers.
func (c *cpu) popWindow(w *window) {
	c.depth--
	c.inRegionFrame = w.inRegionFrame
	retI, retF := c.r[RegRetInt], c.f[RegRetFlt]
	c.r, c.f = w.r, w.f
	c.r[RegRetInt], c.f[RegRetFlt] = retI, retF
}

// locateFault stamps the call site onto an intrinsic's Fault (cstring
// reads have no pc of their own).
func locateFault(err error, fn string, pc int) error {
	if f, ok := err.(*Fault); ok && f.Func == "" {
		f.Func = fn
		f.PC = pc
	}
	return err
}

// forkOverhead is the cycles per processor spawn via shared memory.
const forkOverhead = 20

// regionJoin is the cost accounting of one parallel region, the same
// whichever engine ran it and however the host scheduled it: every
// processor's costs are measured from the common fork point, the slowest
// processor sets the region's time, fork overhead is charged per extra
// processor, and counted work is pooled.
type regionJoin struct {
	fork           regionCosts // the forking context's totals
	sum            regionCosts // every processor's share since the fork; cycles is the largest
	deltas, stalls [MaxProcessors]int64
}

// regionCosts is the cumulative counters of a cpu that a region accounts.
type regionCosts struct {
	cycles, syncStall, flops, icount, maskOps, maskActive, maskTotal int64
}

func (c *cpu) costs() regionCosts {
	return regionCosts{c.cycles, c.syncStall, c.flops, c.icount, c.maskOps, c.maskActive, c.maskTotal}
}

// fork starts the accounting of a region c is about to run.
func (c *cpu) fork() regionJoin { return regionJoin{fork: c.costs()} }

// add takes in processor pid's run, read off the context it finished on.
func (j *regionJoin) add(pid int, sub *cpu) {
	j.deltas[pid] = sub.cycles - j.fork.cycles
	j.stalls[pid] = sub.syncStall - j.fork.syncStall
	j.sum.cycles = max(j.sum.cycles, j.deltas[pid])
	j.sum.flops += sub.flops - j.fork.flops
	j.sum.icount += sub.icount - j.fork.icount
	j.sum.maskOps += sub.maskOps - j.fork.maskOps
	j.sum.maskActive += sub.maskActive - j.fork.maskActive
	j.sum.maskTotal += sub.maskTotal - j.fork.maskTotal
}

// finish closes the region on c, which holds processor 0's final state
// (scalar results inside parallel regions are chunk-local by construction):
// pooled costs, the per-processor breakdown, and every unit synchronized
// to the join.
func (j *regionJoin) finish(c *cpu, procs int) {
	for pid := 0; pid < procs; pid++ {
		c.m.recordProcStat(pid, j.deltas[pid]-j.stalls[pid], j.stalls[pid], j.sum.cycles-j.deltas[pid])
	}
	c.pid = 0
	c.flops = j.fork.flops + j.sum.flops
	c.icount = j.fork.icount + j.sum.icount
	c.maskOps = j.fork.maskOps + j.sum.maskOps
	c.maskActive = j.fork.maskActive + j.sum.maskActive
	c.maskTotal = j.fork.maskTotal + j.sum.maskTotal
	c.cycles = j.fork.cycles + j.sum.cycles + forkOverhead*int64(procs-1)
	c.clock = c.cycles
	c.unit = [NumUnits]int64{c.cycles, c.cycles, c.cycles}
}

// forkTo makes sub processor pid of a region c is forking, with out (reset)
// for its output. The copy is the whole context — registers, VRF,
// scoreboard, by copyLive — except the argument list, whose backing array
// the struct copy would share: it is cloned so that processors appending
// to it (concurrently, in the fast engine) cannot collide.
func (c *cpu) forkTo(sub *cpu, pid int, out *strings.Builder) {
	sub.copyLive(c)
	sub.pid = int64(pid)
	out.Reset()
	sub.out = out
	sub.args = append([]argval(nil), c.args...)
}

// region is one parallel region in flight, the same for both engines: its
// join, the forking context c, which runs pid 0, the scratch block pids
// 1.. are forked into (nil for one processor without post/wait), the
// fabric (nil without post/wait), and c's own sink, fabric and frame flag.
type region struct {
	regionJoin
	c     *cpu
	procs int
	scr   *regionScratch
	ss    *syncState
	out   *strings.Builder
	sync  *syncState
	frame bool
}

// enterRegion opens a region on c: the machine's region scratch claimed,
// its fabric reset for a region with post/wait, c made pid 0 with its
// output redirected to the scratch when other processors' output must be
// ordered against it, and pids 1.. forked from c. Each engine then runs
// the processors its own way and closes the region with leave.
func (c *cpu) enterRegion(hasSync bool) region {
	r := region{regionJoin: c.fork(), c: c, procs: c.m.Processors, out: c.out, sync: c.sync, frame: c.inRegionFrame}
	if r.procs > 1 || hasSync {
		r.scr = c.m.claimScratch()
	}
	// A sync region gets its fabric even on one processor: posts must land
	// somewhere, and a wait that nothing could satisfy must deadlock.
	if hasSync {
		r.ss = &r.scr.fabric
		r.ss.reset(r.procs)
	}
	c.pid = 0
	c.sync, c.inRegionFrame = r.ss, hasSync
	if r.procs > 1 {
		r.scr.outs[0].Reset()
		c.out = &r.scr.outs[0]
	}
	for pid := 1; pid < r.procs; pid++ {
		c.forkTo(r.proc(pid), pid, &r.scr.outs[pid])
	}
	return r
}

// proc is processor pid's context.
func (r *region) proc(pid int) *cpu {
	if pid == 0 {
		return r.c
	}
	return &r.scr.subs[pid-1]
}

// leave closes the region once every processor has stopped, err being
// the one the region reports: c's sink, fabric and frame flag given back;
// without an error, every processor's output concatenated in pid order
// and its costs joined onto c; and only then the scratch released.
func (r *region) leave(err error) error {
	c := r.c
	c.out, c.sync, c.inRegionFrame = r.out, r.sync, r.frame
	if err == nil {
		for pid := range r.procs {
			if r.procs > 1 {
				c.out.WriteString(r.scr.outs[pid].String())
			}
			r.add(pid, r.proc(pid))
		}
		r.finish(c, r.procs)
	}
	if r.scr != nil {
		c.m.releaseScratch(r.scr)
	}
	return err
}

// errWaitBlocked is the sentinel exec returns when a wait's threshold
// has not been posted yet: the region scheduler parks the processor at
// its parkedPC and retries after others have run. Nothing was charged or
// retired, and nothing is allocated.
var errWaitBlocked = errors.New("titan: wait blocked")

// parallelRegion is the reference execution of [start, end): processors
// run serialized on the host thread, a deterministic round-robin in pid
// order (descending under Machine.ReverseRegions), each until it finishes the region or blocks on an unsatisfied
// wait (a region without post/wait is one round, every processor run to
// completion). A full round with no processor retiring anything means no
// post can ever arrive — deadlock. Pid 0 runs on c and pids 1.. on the
// machine's region scratch (enterRegion), as in the fast engine.
func (c *cpu) parallelRegion(f *Func, start, end int, maxInstrs int64) error {
	r := c.enterRegion(hasSyncOps(f.Instrs, start, end))
	procs := r.procs
	var pcs [MaxProcessors]int
	for pid := range procs {
		pcs[pid] = start
	}
	for live := procs; live > 0; {
		progress := false
		for k := range procs {
			pid := k
			if c.m.ReverseRegions {
				pid = procs - 1 - k
			}
			if pcs[pid] < 0 {
				continue
			}
			sub := r.proc(pid)
			ic0 := sub.icount
			err := sub.exec(f, pcs[pid], end, maxInstrs)
			if err == errWaitBlocked {
				pcs[pid] = sub.parkedPC
				progress = progress || sub.icount > ic0
				continue
			}
			if err != nil {
				return r.leave(err)
			}
			pcs[pid] = -1
			live--
			progress = true
		}
		if live > 0 && !progress {
			return r.leave(fmt.Errorf("titan: sync deadlock in parallel region in %s", f.Name))
		}
	}
	return r.leave(nil)
}

// matchParEnd returns the index of the par.end closing the par.begin at
// pc, or -1.
func matchParEnd(instrs []Instr, pc int) int {
	depth := 0
	for i := pc + 1; i < len(instrs); i++ {
		switch instrs[i].Op {
		case OpParBegin:
			depth++
		case OpParEnd:
			if depth == 0 {
				return i
			}
			depth--
		}
	}
	return -1
}

// intrinsic implements the tiny runtime: printf (with %d/%g/%f/%s/%c and
// %%), putchar, puts, and exit-less abort stubs used by examples. It
// reports whether the name was an intrinsic — the call is then over, its
// argument list consumed — plus any fault raised while reading string
// arguments from simulated memory, located at the call site fn+pc.
func (c *cpu) intrinsic(name, fn string, pc int) (bool, error) {
	var err error
	switch name {
	case "printf":
		err = c.doPrintf()
	case "putchar":
		if len(c.args) > 0 {
			c.out.WriteByte(byte(c.args[0].i))
		}
		c.r[RegRetInt] = 0
	case "puts":
		if len(c.args) > 0 {
			var s string
			if s, err = c.cstring(c.args[0].i); err == nil {
				c.out.WriteString(s)
				c.out.WriteByte('\n')
			}
		}
		if err == nil {
			c.r[RegRetInt] = 0
		}
	default:
		return false, nil
	}
	c.args = nil
	return true, locateFault(err, fn, pc)
}

// cstring reads a NUL-terminated string from simulated memory. A start
// address outside memory is a fault; a string running to the end of
// memory without a NUL is truncated there, as before.
func (c *cpu) cstring(addr int64) (string, error) {
	if addr < 0 || addr >= int64(len(c.m.mem)) {
		return "", &Fault{Addr: addr, Size: 1, Kind: "cstring"}
	}
	var sb strings.Builder
	for addr < int64(len(c.m.mem)) && c.m.mem[addr] != 0 {
		sb.WriteByte(c.m.mem[addr])
		addr++
	}
	return sb.String(), nil
}

func (c *cpu) doPrintf() error {
	if len(c.args) == 0 {
		return nil
	}
	format, err := c.cstring(c.args[0].i)
	if err != nil {
		return err
	}
	rest := c.args[1:]
	next := func() argval {
		if len(rest) == 0 {
			return argval{}
		}
		v := rest[0]
		rest = rest[1:]
		return v
	}
	i := 0
	for i < len(format) {
		ch := format[i]
		if ch != '%' || i+1 >= len(format) {
			c.out.WriteByte(ch)
			i++
			continue
		}
		i++
		// Skip width/precision modifiers.
		spec := "%"
		for i < len(format) && strings.ContainsRune("0123456789.-+l", rune(format[i])) {
			spec += string(format[i])
			i++
		}
		if i >= len(format) {
			break
		}
		verb := format[i]
		i++
		switch verb {
		case 'd', 'i':
			fmt.Fprintf(c.out, strings.ReplaceAll(spec, "l", "")+"d", next().i)
		case 'u':
			fmt.Fprintf(c.out, strings.ReplaceAll(spec, "l", "")+"d", next().i)
		case 'x':
			fmt.Fprintf(c.out, strings.ReplaceAll(spec, "l", "")+"x", next().i)
		case 'c':
			c.out.WriteByte(byte(next().i))
		case 'f', 'e', 'g':
			a := next()
			v := a.f
			if !a.isFlt {
				v = float64(a.i)
			}
			fmt.Fprintf(c.out, spec+string(verb), v)
		case 's':
			s, err := c.cstring(next().i)
			if err != nil {
				return err
			}
			c.out.WriteString(s)
		case '%':
			c.out.WriteByte('%')
		default:
			c.out.WriteByte('%')
			c.out.WriteByte(verb)
		}
	}
	c.r[RegRetInt] = int64(len(format))
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
