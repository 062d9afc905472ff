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
//   - Adding a window never splits an existing fragment — extra windows
//     can only extend coverage, so every old in-fragment boundary still
//     fails the split test. The new job merges into at most one fragment
//     on its left (the one whose coverage its release fails to split
//     from) and then absorbs a run of fragments on its right whose
//     starts the extended coverage reaches.
//   - Removing a window never merges fragments — coverage only shrinks,
//     so every old boundary still splits — and can only split the one
//     fragment that contained the job, which is re-decomposed locally.
//
// Everything outside the touched fragments keeps its solved result.
package incr

import (
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

// Job returns the live job with the given id.
func (t *Tracker[R]) Job(id int) (sched.Job, bool) {
	j, ok := t.jobs[id]
	return j, ok
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

// Add inserts a job and returns its id (ids are assigned in arrival
// order and never reused). The job merges into the decomposition as
// Decompose's sweep would place it: it joins the fragment whose
// coverage its release cannot split from, then absorbs the run of
// later fragments reached by the extended coverage. Exactly the
// touched fragments (at least the one now containing the job) become
// dirty.
func (t *Tracker[R]) Add(j sched.Job) int {
	id := t.nextID
	t.nextID++
	t.jobs[id] = j
	t.ids = append(t.ids, id)

	// frags[lo:hi] is the run of fragments the new job merges with. At
	// most one fragment starts at or before the job's release (regions
	// are disjoint); it merges iff the idle run between its coverage
	// end and the release fails the split test — in particular always
	// when the release lands inside it. Fragments to the right then
	// merge while the combined coverage end reaches them the same way.
	lo := sort.Search(len(t.frags), func(i int) bool { return t.frags[i].start > j.Release })
	hi := lo
	start, end := j.Release, j.Deadline
	if lo > 0 && !prep.Splits(j.Release-t.frags[lo-1].end-1, t.splitWidth) {
		lo--
		start = t.frags[lo].start
		if t.frags[lo].end > end {
			end = t.frags[lo].end
		}
	}
	for hi < len(t.frags) && !prep.Splits(t.frags[hi].start-end-1, t.splitWidth) {
		if t.frags[hi].end > end {
			end = t.frags[hi].end
		}
		hi++
	}

	merged := &fragment[R]{ids: []int{id}, start: start, end: end, dirty: true}
	for _, f := range t.frags[lo:hi] {
		merged.ids = append(merged.ids, f.ids...)
	}
	sort.Ints(merged.ids)
	t.frags = append(t.frags[:lo], append([]*fragment[R]{merged}, t.frags[hi:]...)...)
	return id
}

// Remove deletes the job with the given id, reporting whether it was
// live. The containing fragment is re-decomposed locally — it may
// shrink or split, and every piece is dirty; no other fragment is
// touched.
func (t *Tracker[R]) Remove(id int) bool {
	j, ok := t.jobs[id]
	if !ok {
		return false
	}
	delete(t.jobs, id)
	i, _ := slices.BinarySearch(t.ids, id)
	t.ids = slices.Delete(t.ids, i, i+1)
	fi := sort.Search(len(t.frags), func(i int) bool { return t.frags[i].end >= j.Release })
	f := t.frags[fi]

	rest := make([]int, 0, len(f.ids)-1)
	for _, fid := range f.ids {
		if fid != id {
			rest = append(rest, fid)
		}
	}
	if len(rest) == 0 {
		t.frags = append(t.frags[:fi], t.frags[fi+1:]...)
		return true
	}
	// Re-decompose the survivors. rest is ascending, so each sub's
	// index list maps back to an ascending id list; fragment instances
	// are rebuilt from absolute windows at Resolve, so only the ids and
	// the covered region carry over.
	jobs := make([]sched.Job, len(rest))
	for i, fid := range rest {
		jobs[i] = t.jobs[fid]
	}
	pl := prep.Decompose(sched.Instance{Jobs: jobs, Procs: t.procs}, t.splitWidth)
	pieces := make([]*fragment[R], len(pl.Subs))
	for si, sub := range pl.Subs {
		nf := &fragment[R]{ids: make([]int, len(sub.Jobs)), dirty: true}
		for i, local := range sub.Jobs {
			nf.ids[i] = rest[local]
		}
		lo, hi := sub.Instance.TimeHorizon()
		nf.start, nf.end = sub.Offset+lo, sub.Offset+hi
		pieces[si] = nf
	}
	t.frags = append(t.frags[:fi], append(pieces, t.frags[fi+1:]...)...)
	return true
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
