package il

// Arena-backed allocation for IL nodes. A compile allocates each
// procedure's statements and expressions from chunked slabs owned by the
// procedure, so node allocation is a bump pointer instead of a malloc,
// nodes of the same kind sit contiguously in memory, and freeing a
// compile is one Release call that drops the slabs (instead of the
// garbage collector tracing a few hundred thousand individual nodes).
//
// Ownership contract:
//
//   - The arena is the one way to build IL: every constructor, rewriter
//     and cloner of this package is a method on *Arena (build.go, walk.go,
//     simplify.go). The front end attaches one Arena per Proc (lower.File)
//     and every pass that rewrites a procedure builds the replacement
//     nodes through p.Arena(). Statements belong to one procedure;
//     expressions are immutable values any procedure may reference, so
//     inline expansion copies a callee's statements into the caller's
//     arena and shares the expressions it does not rename.
//   - Code that only reads a procedure it does not own (the inliner on a
//     callee, the schedule checker and the tuner's discovery on a shared
//     base, dependence views) builds from the caller's arena or from nil,
//     never from the read procedure's: arenas are single-owner and not
//     safe for concurrent use.
//   - A nil *Arena is valid everywhere and allocates each node from the
//     heap. It is what a procedure with no arena builds from: hand-built
//     test IL, catalog-decoded procedures (whose statements are copied
//     into the caller's arena at expansion), and the arena-stripped
//     compile that differential_arena_test.go holds every arena compile
//     equal to.
//   - Release drops the arena's slab references and retires its bytes
//     from the process-wide ArenaBytesLive gauge. The nodes themselves
//     stay valid as long as any IL references them (chunks are reclaimed
//     by the collector once nothing does), so an expression shared with
//     another procedure or program outlives its arena's Release. Release
//     marks the moment the compile stops holding bulk IL memory, which is
//     what the titand daemon frees after an artifact is encoded.
import (
	"sync/atomic"
	"unsafe"

	"repro/internal/ctype"
)

// liveBytes is the process-wide total of bytes held by un-released
// arenas: chunk allocations add, Release subtracts. The titand /metrics
// arena_bytes_live gauge reads it.
var liveBytes atomic.Int64

// ArenaBytesLive reports the bytes currently held by all un-released
// arenas in the process.
func ArenaBytesLive() int64 { return liveBytes.Load() }

// Chunk geometry, from the node counts of every (procedure, kind) slab
// over the testdata corpus, the benchmark kernels (scalar, full and tuned
// builds, and every tuner candidate), the 24-procedure golden unit and the
// 16 generated units of the compile workload. The median slab holds 4 to
// 8 nodes in each of those sets, so the first chunk is the smallest power
// of two that holds the median slab: half the slabs need one chunk, and a
// one-node slab strands 7 nodes, not 63. The 90th-percentile slab of the
// large units (the golden unit and the generated ones) holds about 330
// nodes, so chunks stop doubling at the power of two below it: only the
// largest tenth of slabs pays one allocation per 256 nodes past the
// doubling, and no slab's unused tail exceeds 255 nodes. Over the
// generated units this holds 1.34 MB of nodes per compile in 1.73 MB of
// chunks; 64 doubling to 1024 took 2.83 MB.
const (
	arenaChunkMin = 8
	arenaChunkMax = 256
)

// slab is one node kind's chunked storage. put hands out pointers into
// the current chunk; when it fills, a new chunk is started and the old
// one stays reachable through the handed-out pointers.
type slab[T any] struct {
	cur  []T
	next int // next chunk's capacity
}

// put stores v in the slab, which is a field of a, and returns its
// address.
func (s *slab[T]) put(a *Arena, v T) *T {
	if len(s.cur) == cap(s.cur) {
		if s.next < arenaChunkMin {
			s.next = arenaChunkMin
		} else if s.next < arenaChunkMax {
			s.next *= 2
		}
		s.cur = make([]T, 0, s.next)
		n := int64(unsafe.Sizeof(v)) * int64(s.next)
		a.bytes += n
		liveBytes.Add(n)
	}
	a.used += int64(unsafe.Sizeof(v))
	s.cur = append(s.cur, v)
	return &s.cur[len(s.cur)-1]
}

// onHeap is what every allocator does under a nil arena.
func onHeap[T any](v T) *T { return &v }

// Arena owns chunked slabs for every IL node kind. The zero value is
// ready to use; a nil *Arena is valid and allocates from the heap.
// An Arena is not safe for concurrent use: it is owned by one Proc and
// the pass manager's worker pool never runs two passes over one
// procedure at once.
type Arena struct {
	bytes int64 // chunk capacity allocated, in bytes
	used  int64 // bytes of the nodes put into those chunks

	constInts   slab[ConstInt]
	constFloats slab[ConstFloat]
	varRefs     slab[VarRef]
	addrOfs     slab[AddrOf]
	loads       slab[Load]
	bins        slab[Bin]
	uns         slab[Un]
	casts       slab[Cast]
	vecRefs     slab[VecRef]

	assigns     slab[Assign]
	predAssigns slab[PredAssign]
	calls       slab[Call]
	ifs         slab[If]
	whiles      slab[While]
	doLoops     slab[DoLoop]
	doPars      slab[DoParallel]
	syncInfos   slab[SyncInfo]
	syncPosts   slab[SyncPost]
	syncWaits   slab[SyncWait]
	vecAssigns  slab[VectorAssign]
	gotos       slab[Goto]
	labels      slab[Label]
	returns     slab[Return]
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Bytes reports the arena's chunk bytes and the bytes of the nodes it has
// handed out of them; their difference is capacity that holds no node.
func (a *Arena) Bytes() (chunks, nodes int64) {
	if a == nil {
		return 0, 0
	}
	return a.bytes, a.used
}

// Release drops the arena's slab references and retires its bytes from
// the ArenaBytesLive gauge. Safe to call more than once; a released
// arena keeps working (new allocations open fresh chunks and are
// accounted, and retired by the next Release).
func (a *Arena) Release() {
	if a == nil {
		return
	}
	liveBytes.Add(-a.bytes)
	*a = Arena{}
}

// ---------------------------------------------------------------- expressions

// ConstInt allocates an integer constant.
func (a *Arena) ConstInt(v int64, t *ctype.Type) *ConstInt {
	if a == nil {
		return &ConstInt{Val: v, T: t}
	}
	return a.constInts.put(a, ConstInt{Val: v, T: t})
}

// Int allocates a constant of type int.
func (a *Arena) Int(v int64) *ConstInt { return a.ConstInt(v, ctype.IntType) }

// ConstFloat allocates a floating constant.
func (a *Arena) ConstFloat(v float64, t *ctype.Type) *ConstFloat {
	if a == nil {
		return &ConstFloat{Val: v, T: t}
	}
	return a.constFloats.put(a, ConstFloat{Val: v, T: t})
}

// VarRef allocates a variable reference.
func (a *Arena) VarRef(id VarID, t *ctype.Type) *VarRef {
	if a == nil {
		return &VarRef{ID: id, T: t}
	}
	return a.varRefs.put(a, VarRef{ID: id, T: t})
}

// AddrOf allocates an address-of expression.
func (a *Arena) AddrOf(id VarID, t *ctype.Type) *AddrOf {
	if a == nil {
		return &AddrOf{ID: id, T: t}
	}
	return a.addrOfs.put(a, AddrOf{ID: id, T: t})
}

// Load allocates a memory load.
func (a *Arena) Load(addr Expr, t *ctype.Type, volatile bool) *Load {
	if a == nil {
		return &Load{Addr: addr, T: t, Volatile: volatile}
	}
	return a.loads.put(a, Load{Addr: addr, T: t, Volatile: volatile})
}

// Bin allocates a binary expression (no folding; see NewBin).
func (a *Arena) Bin(op Op, l, r Expr, t *ctype.Type) *Bin {
	if a == nil {
		return &Bin{Op: op, L: l, R: r, T: t}
	}
	return a.bins.put(a, Bin{Op: op, L: l, R: r, T: t})
}

// Un allocates a unary expression (no folding; see NewUn).
func (a *Arena) Un(op Op, x Expr, t *ctype.Type) *Un {
	if a == nil {
		return &Un{Op: op, X: x, T: t}
	}
	return a.uns.put(a, Un{Op: op, X: x, T: t})
}

// Cast allocates a cast (no simplification; see NewCast).
func (a *Arena) Cast(x Expr, t *ctype.Type) *Cast {
	if a == nil {
		return &Cast{X: x, T: t}
	}
	return a.casts.put(a, Cast{X: x, T: t})
}

// VecRef allocates a vector section reference.
func (a *Arena) VecRef(base, stride Expr, t *ctype.Type) *VecRef {
	if a == nil {
		return &VecRef{Base: base, Stride: stride, T: t}
	}
	return a.vecRefs.put(a, VecRef{Base: base, Stride: stride, T: t})
}

// ---------------------------------------------------------------- statements

// Assign allocates an assignment statement.
func (a *Arena) Assign(s Assign) *Assign {
	if a == nil {
		return onHeap(s)
	}
	return a.assigns.put(a, s)
}

// PredAssign allocates a predicated-store statement.
func (a *Arena) PredAssign(s PredAssign) *PredAssign {
	if a == nil {
		return onHeap(s)
	}
	return a.predAssigns.put(a, s)
}

// Call allocates a call statement.
func (a *Arena) Call(s Call) *Call {
	if a == nil {
		return onHeap(s)
	}
	return a.calls.put(a, s)
}

// If allocates an if statement.
func (a *Arena) If(s If) *If {
	if a == nil {
		return onHeap(s)
	}
	return a.ifs.put(a, s)
}

// While allocates a while statement.
func (a *Arena) While(s While) *While {
	if a == nil {
		return onHeap(s)
	}
	return a.whiles.put(a, s)
}

// DoLoop allocates a DO loop.
func (a *Arena) DoLoop(s DoLoop) *DoLoop {
	if a == nil {
		return onHeap(s)
	}
	return a.doLoops.put(a, s)
}

// DoParallel allocates a parallel DO loop.
func (a *Arena) DoParallel(s DoParallel) *DoParallel {
	if a == nil {
		return onHeap(s)
	}
	return a.doPars.put(a, s)
}

// SyncInfo allocates a DoParallel's DOACROSS annotation.
func (a *Arena) SyncInfo(s SyncInfo) *SyncInfo {
	if a == nil {
		return onHeap(s)
	}
	return a.syncInfos.put(a, s)
}

// SyncPost allocates a DOACROSS post marker.
func (a *Arena) SyncPost(s SyncPost) *SyncPost {
	if a == nil {
		return onHeap(s)
	}
	return a.syncPosts.put(a, s)
}

// SyncWait allocates a DOACROSS wait marker.
func (a *Arena) SyncWait(s SyncWait) *SyncWait {
	if a == nil {
		return onHeap(s)
	}
	return a.syncWaits.put(a, s)
}

// VectorAssign allocates a vector assignment.
func (a *Arena) VectorAssign(s VectorAssign) *VectorAssign {
	if a == nil {
		return onHeap(s)
	}
	return a.vecAssigns.put(a, s)
}

// Goto allocates a goto.
func (a *Arena) Goto(s Goto) *Goto {
	if a == nil {
		return onHeap(s)
	}
	return a.gotos.put(a, s)
}

// Label allocates a label.
func (a *Arena) Label(s Label) *Label {
	if a == nil {
		return onHeap(s)
	}
	return a.labels.put(a, s)
}

// Return allocates a return.
func (a *Arena) Return(s Return) *Return {
	if a == nil {
		return onHeap(s)
	}
	return a.returns.put(a, s)
}
