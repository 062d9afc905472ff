// Package incr maintains the forced-idle fragment decomposition of a
// live one-interval instance under job add/remove deltas, so an exact
// solution can be kept current by re-solving only the fragments a delta
// touched. It is the state behind the facade's incremental sessions
// (gapsched.Session) and, through them, the daemon's /v1/session
// endpoints.
//
// The invariant is exactness: after any delta sequence, the tracker's
// fragment list is identical — same boundaries, same per-fragment job
// order, same zero-based translation — to what prep.Decompose would
// produce on the full current job set presented in job-id order. A
// resolve that solves each dirty fragment and sums per-fragment costs
// in time order is therefore bit-identical to a from-scratch solve of
// the current instance; clean fragments keep their stored results and
// are never re-solved.
//
// Why deltas stay local (both directions follow from Decompose's sweep,
// whose running coverage end only ever grows within a fragment):
//
//   - Removing a window never merges fragments — coverage only shrinks,
//     so every old boundary still splits — and can only split the
//     fragment that contained the job, which is re-decomposed locally.
//   - Adding a window never splits an existing fragment — extra windows
//     can only extend coverage, so every old in-fragment boundary still
//     fails the split test. Decompose's sweep over the new job set
//     therefore sees each old fragment as one block [start, end], and
//     the added jobs merge with the blocks their coverage reaches: a
//     job joins the fragment whose coverage its release fails to split
//     from, and the extended coverage absorbs a run of fragments on its
//     right.
//
// Everything outside the touched fragments keeps its solved result.
package incr

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/prep"
	"repro/internal/sched"
)

// fragment is one maximal covered region of the live instance: jobs
// whose windows chain with idle runs too narrow to split. start is the
// minimum release, end the maximum deadline; ids are ascending, which
// is exactly the per-fragment job order Decompose restores. rec is the
// caller's record of the fragment's last solve, kept as given.
type fragment[R any] struct {
	ids        []int
	start, end int
	dirty      bool
	rec        R
}

// Tracker holds a live instance and its incrementally maintained
// decomposition, storing one caller-defined record R per fragment —
// whatever the solve callback handed to Resolve returns. The zero value
// is not usable; construct with New. Tracker is not safe for concurrent
// use — callers (the facade Session) serialize access.
type Tracker[R any] struct {
	procs      int
	splitWidth float64
	nextID     int
	jobs       map[int]sched.Job
	ids        []int          // live ids, ascending: ids are assigned in increasing order
	frags      []*fragment[R] // ascending by start; regions disjoint
}

// New builds an empty tracker for procs processors with the given
// split threshold (1 for the span objective, α for power — the same
// widths prep.ForGaps/ForPower use).
func New[R any](procs int, splitWidth float64) *Tracker[R] {
	return &Tracker[R]{procs: procs, splitWidth: splitWidth, jobs: make(map[int]sched.Job)}
}

// Len returns the number of live jobs.
func (t *Tracker[R]) Len() int { return len(t.jobs) }

// Fragments returns the number of fragments in the current
// decomposition.
func (t *Tracker[R]) Fragments() int { return len(t.frags) }

// Horizon returns the live jobs' earliest release and latest deadline,
// or (0, −1) when no job is live, like sched.Instance.TimeHorizon. The
// fragments are disjoint and ascending, so the first one starts the
// horizon and the last one ends it.
func (t *Tracker[R]) Horizon() (lo, hi int) {
	if len(t.frags) == 0 {
		return 0, -1
	}
	return t.frags[0].start, t.frags[len(t.frags)-1].end
}

// Instance snapshots the current job set as a solver instance, jobs in
// id order. A from-scratch solve of this instance is the reference the
// tracker's incremental solution is bit-identical to.
func (t *Tracker[R]) Instance() sched.Instance {
	jobs := make([]sched.Job, len(t.ids))
	for i, id := range t.ids {
		jobs[i] = t.jobs[id]
	}
	return sched.Instance{Jobs: jobs, Procs: t.procs}
}

// UnknownJobError rejects a delta that removes an id that is not live
// (never assigned or already removed) or that names one id twice.
type UnknownJobError struct{ ID int }

func (e *UnknownJobError) Error() string { return fmt.Sprintf("session has no job %d", e.ID) }

// Apply applies one delta: it removes the jobs with the given ids, then
// adds the given jobs and returns their ids in order (ids are assigned
// in arrival order and never reused). A removal id that is not live, or
// that repeats, rejects the whole delta with *UnknownJobError before
// anything changes. Exactly the touched fragments become dirty: the
// pieces of every fragment that lost a job, and every fragment an added
// job joined. A delta of k jobs costs O(k log k) plus the fragments it
// touches.
func (t *Tracker[R]) Apply(add []sched.Job, remove []int) ([]int, error) {
	for _, id := range remove {
		if _, live := t.jobs[id]; !live {
			return nil, &UnknownJobError{ID: id}
		}
	}
	gone := slices.Sorted(slices.Values(remove))
	for i := 1; i < len(gone); i++ {
		if gone[i] == gone[i-1] {
			return nil, &UnknownJobError{ID: gone[i]}
		}
	}
	t.remove(gone)
	return t.add(add), nil
}

// remove deletes the given live ids, ascending, and re-decomposes every
// fragment that held one, once, however many of its jobs left.
func (t *Tracker[R]) remove(ids []int) {
	if len(ids) == 0 {
		return
	}
	// A job lies in the first fragment whose coverage reaches its
	// release: fragments are disjoint and ascending.
	hit := make([]int, len(ids))
	for i, id := range ids {
		r := t.jobs[id].Release
		hit[i] = sort.Search(len(t.frags), func(k int) bool { return t.frags[k].end >= r })
		delete(t.jobs, id)
	}
	slices.Sort(hit)
	hit = slices.Compact(hit)

	// Drop the removed ids from the live list in one merge pass, starting
	// at the first of them.
	w, _ := slices.BinarySearch(t.ids, ids[0])
	for _, id := range t.ids[w:] {
		if len(ids) > 0 && id == ids[0] {
			ids = ids[1:]
			continue
		}
		t.ids[w] = id
		w++
	}
	t.ids = t.ids[:w]

	first := hit[0]
	tail := make([]*fragment[R], 0, len(t.frags)-first)
	for fi, f := range t.frags[first:] {
		if len(hit) > 0 && hit[0] == first+fi {
			tail = append(tail, t.pieces(f)...)
			hit = hit[1:]
		} else {
			tail = append(tail, f)
		}
	}
	t.frags = append(t.frags[:first], tail...)
}

// pieces re-decomposes a fragment that lost jobs: its surviving jobs
// split as Decompose splits them, and every piece is dirty. The
// survivors are ascending, so each sub's index list maps back to an
// ascending id list; fragment instances are rebuilt from absolute
// windows at Resolve, so only the ids and the covered region carry
// over.
func (t *Tracker[R]) pieces(f *fragment[R]) []*fragment[R] {
	rest := make([]int, 0, len(f.ids))
	jobs := make([]sched.Job, 0, len(f.ids))
	for _, id := range f.ids {
		if j, live := t.jobs[id]; live {
			rest = append(rest, id)
			jobs = append(jobs, j)
		}
	}
	pl := prep.Decompose(sched.Instance{Jobs: jobs, Procs: t.procs}, t.splitWidth)
	out := make([]*fragment[R], len(pl.Subs))
	for si, sub := range pl.Subs {
		nf := &fragment[R]{ids: make([]int, len(sub.Jobs)), dirty: true}
		for i, local := range sub.Jobs {
			nf.ids[i] = rest[local]
		}
		lo, hi := sub.Instance.TimeHorizon()
		nf.start, nf.end = sub.Offset+lo, sub.Offset+hi
		out[si] = nf
	}
	return out
}

// add assigns the added jobs their ids and merges them into the
// fragment list in one pass of Decompose's sweep: the jobs in release
// order (ties by id, as Decompose breaks them) interleaved with the
// existing fragments by start, each item joining the fragment before it
// unless the idle run between them splits. The pass starts at the
// fragment the earliest job joins and stops once every job is placed
// and the coverage no longer reaches the next fragment. A fragment
// nothing joined is kept as it was; one that absorbed items is dirty.
func (t *Tracker[R]) add(add []sched.Job) []int {
	ids := make([]int, len(add))
	order := make([]int, len(add))
	for i, j := range add {
		ids[i], order[i] = t.nextID, i
		t.jobs[t.nextID] = j
		t.nextID++
	}
	t.ids = append(t.ids, ids...)
	if len(add) == 0 {
		return ids
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(add[a].Release, add[b].Release) })

	// At most one fragment starts at or before the earliest release
	// (regions are disjoint); the pass starts there iff the job joins it.
	r0 := add[order[0]].Release
	lo := sort.Search(len(t.frags), func(i int) bool { return t.frags[i].start > r0 })
	if lo > 0 && !prep.Splits(r0-t.frags[lo-1].end-1, t.splitWidth) {
		lo--
	}
	var built []*fragment[R]
	hi := lo
	for len(order) > 0 || hi < len(t.frags) && !prep.Splits(t.frags[hi].start-built[len(built)-1].end-1, t.splitWidth) {
		var f *fragment[R] // the next item when it is an existing fragment
		var start, end int
		var itemIDs []int
		if len(order) > 0 && (hi == len(t.frags) || add[order[0]].Release < t.frags[hi].start) {
			i := order[0]
			start, end, itemIDs, order = add[i].Release, add[i].Deadline, ids[i:i+1], order[1:]
		} else {
			f, hi = t.frags[hi], hi+1
			start, end, itemIDs = f.start, f.end, f.ids
		}
		switch n := len(built); {
		case n > 0 && !prep.Splits(start-built[n-1].end-1, t.splitWidth):
			g := built[n-1]
			g.ids, g.end, g.dirty = append(g.ids, itemIDs...), max(g.end, end), true
		case f != nil:
			built = append(built, f)
		default:
			built = append(built, &fragment[R]{ids: slices.Clone(itemIDs), start: start, end: end, dirty: true})
		}
	}
	for _, f := range built {
		if f.dirty {
			slices.Sort(f.ids)
		}
	}
	t.frags = slices.Replace(t.frags, lo, hi, built...)
	return ids
}

// position returns the index of a live id among the live ids — its
// job's index in Instance. While no job has been removed the live ids
// are 0, 1, …, so the index is the id itself.
func (t *Tracker[R]) position(id int) int {
	if len(t.ids) == t.nextID {
		return id
	}
	i, _ := slices.BinarySearch(t.ids, id)
	return i
}

// fragmentInstance builds the solver instance of one fragment: the
// fragment's jobs in id order, translated so the earliest release is 0
// — byte-identical to the corresponding prep.Decompose sub-instance of
// Instance().
func (t *Tracker[R]) fragmentInstance(f *fragment[R]) sched.Instance {
	jobs := make([]sched.Job, len(f.ids))
	for i, id := range f.ids {
		j := t.jobs[id]
		jobs[i] = sched.Job{Release: j.Release - f.start, Deadline: j.Deadline - f.start}
	}
	return sched.Instance{Jobs: jobs, Procs: t.procs}
}

// Resolve brings the solution up to date and assembles it. Fragments
// are visited in time order — the order a from-scratch solve sums
// costs in, so a visitor accumulating them stays bit-identical. A dirty
// fragment is first solved through solve and its record stored; visit
// then receives the fragment's record, fresh or (reused set) stored by
// an earlier Resolve, and returns the fragment-local schedule it
// carries (zero-based times, slots aligned with the fragment's jobs in
// id order) or the fragment's error. The assembled schedule covers
// Instance() (slots in job-id order, absolute times). On the first
// error (stored or fresh) Resolve stops and returns it, exactly like
// the sequential from-scratch path; fragments after the failing one
// stay dirty and are picked up by a later Resolve once the conflict is
// removed.
func (t *Tracker[R]) Resolve(solve func(sched.Instance) R, visit func(rec *R, reused bool) (sched.Schedule, error)) (sched.Schedule, error) {
	s := sched.Schedule{Procs: t.procs, Slots: make([]sched.Assignment, len(t.ids))}
	for _, f := range t.frags {
		reused := !f.dirty
		if f.dirty {
			f.rec = solve(t.fragmentInstance(f))
			f.dirty = false
		}
		part, err := visit(&f.rec, reused)
		if err != nil {
			return sched.Schedule{}, err
		}
		if len(part.Slots) != len(f.ids) {
			return sched.Schedule{}, fmt.Errorf("incr: fragment solution has %d slots for %d jobs", len(part.Slots), len(f.ids))
		}
		for i, a := range part.Slots {
			s.Slots[t.position(f.ids[i])] = sched.Assignment{Proc: a.Proc, Time: a.Time + f.start}
		}
	}
	return s, nil
}
