package core

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/heur"
	"repro/internal/sched"
)

// workspace holds every buffer one fragment solve needs, so that a
// solve after warm-up allocates none of them: the base arrays and the
// interval index, compute's right-child caches, the memo storage, the
// greedy incumbent's arrays and the slots rebuild writes. Solve takes
// a workspace from the free list and puts it back when it returns.
type workspace struct {
	base

	// rights holds compute's right-child caches as a stack of frames of
	// width p+1: the case-B scan at depth d uses frame d, and depth
	// stays below n (see compute).
	rights []float64

	slots  slotStore          // memo storage
	greedy heur.Scratch       // the incumbent's arrays
	placed []sched.Assignment // rebuild's output, before Staircase
}

// reset prepares w for a solve of in.
func (w *workspace) reset(in sched.Instance, fullGrid bool) {
	w.base.reset(in, fullGrid)
	w.rights = resize(w.rights, (len(in.Jobs)+1)*(w.p+1))
}

// maxKeptBytes caps every buffer a workspace keeps between solves:
// putWorkspace drops a larger one, and the memo keeps no size class
// above maxKeptClass, whose hot half is this size. Without the cap one
// oversized fragment would pin its memory on every idle workspace.
// The index tables of fragments up to 1,000 jobs stay below it, and so
// do the memo arrays of the dense 192-job fragments, at most 2^17
// slots, that make up most of perfbench's exact-batch.
const maxKeptBytes = 4 << 20

// workspaces is the free list of idle workspaces. Every caller of
// Solve — SolveBatch workers, session resolves, a benchmark loop —
// reuses the buffers of earlier solves through it without passing
// anything in. Unlike a sync.Pool it is not emptied by a garbage
// collection, so a batch's large memo classes survive until the next
// batch. It holds at most GOMAXPROCS workspaces, one for each solve
// that can run in parallel.
var workspaces struct {
	sync.Mutex
	free []*workspace
}

// getWorkspace takes an idle workspace, or makes one.
func getWorkspace() *workspace {
	workspaces.Lock()
	defer workspaces.Unlock()
	n := len(workspaces.free)
	if n == 0 {
		return new(workspace)
	}
	w := workspaces.free[n-1]
	workspaces.free[n-1] = nil
	workspaces.free = workspaces.free[:n-1]
	return w
}

// putWorkspace drops w's oversized buffers and the caller's jobs, and
// keeps w unless the free list is full.
func putWorkspace(w *workspace) {
	w.trim()
	workspaces.Lock()
	defer workspaces.Unlock()
	if len(workspaces.free) < runtime.GOMAXPROCS(0) {
		workspaces.free = append(workspaces.free, w)
	}
}

// trim drops every buffer of w above maxKeptBytes, and w's reference
// to the last solve's jobs.
func (w *workspace) trim() {
	w.jobs = nil
	w.byDL, w.grid, w.rel, w.dlx, w.anchors = keep(w.byDL), keep(w.grid), keep(w.rel), keep(w.dlx), keep(w.anchors)
	w.t1val, w.t2val = keep(w.t1val), keep(w.t2val)
	w.rank, w.below = keep(w.rank), keep(w.below)
	w.rights, w.placed = keep(w.rights), keep(w.placed)
	if w.greedy.Bytes() > maxKeptBytes {
		w.greedy = heur.Scratch{}
	}
}

// keep returns buf, or nil when its storage exceeds maxKeptBytes.
func keep[T any](buf []T) []T {
	if bytesOf(buf) > maxKeptBytes {
		return nil
	}
	return buf
}

// bytesOf is the size of buf's storage.
func bytesOf[T any](buf []T) int {
	var elem T
	return cap(buf) * int(unsafe.Sizeof(elem))
}
