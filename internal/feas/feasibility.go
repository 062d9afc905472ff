package feas

import (
	"cmp"
	"slices"

	"repro/internal/sched"
)

// FeasibleOneInterval reports whether every job of the one-interval
// p-processor instance can be scheduled. Feasibility is Hall's condition
// for interval bipartite graphs: for every window [s, e], the jobs whose
// windows lie inside [s, e] number at most p·(e − s + 1), and a job with
// an empty window fits nowhere. For unit jobs with integer windows, EDF
// succeeds exactly when that condition holds, so the verdict is one EDF
// sweep's, in O(n log n). (exact.HallFeasible checks the condition
// directly and serves as the independent oracle in tests.)
func FeasibleOneInterval(in sched.Instance) bool {
	return sweepEDF(in, nil)
}

// EDFOneInterval builds a feasible schedule for a one-interval
// p-processor instance by scanning time and running, at each unit, the p
// (or fewer) released unscheduled jobs with earliest deadlines (ties by
// job index, processors in that order). It returns false if some job
// misses its deadline — which, by the standard exchange argument,
// happens only when the instance is infeasible.
// The schedule produced is "eager": it never idles while work is
// available, so it is the canonical online/greedy baseline (§1).
func EDFOneInterval(in sched.Instance) (sched.Schedule, bool) {
	out := sched.Schedule{Procs: in.Procs, Slots: make([]sched.Assignment, len(in.Jobs))}
	if !sweepEDF(in, out.Slots) {
		return sched.Schedule{}, false
	}
	return out, true
}

// sweepEDF runs the EDF scan behind both functions above, writing each
// job's assignment into slots when slots is non-nil. It visits only busy
// times — with nothing pending, time jumps to the next release — so it
// costs O(n log n) whatever the horizon.
func sweepEDF(in sched.Instance, slots []sched.Assignment) bool {
	n := len(in.Jobs)
	if n == 0 {
		return true
	}
	if in.Procs < 1 {
		return false // nothing ever runs
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Compare(in.Jobs[a].Release, in.Jobs[b].Release)
	})
	q := NewEDFQueue(in.Jobs, n)
	next, t := 0, 0
	for next < n || q.Len() > 0 {
		if q.Len() == 0 {
			t = in.Jobs[order[next]].Release // idle until the next release
		}
		for next < n && in.Jobs[order[next]].Release <= t {
			q.Push(order[next])
			next++
		}
		for proc := 0; proc < in.Procs && q.Len() > 0; proc++ {
			j := q.Pop()
			if in.Jobs[j].Deadline < t {
				return false
			}
			if slots != nil {
				slots[j] = sched.Assignment{Proc: proc, Time: t}
			}
		}
		t++
	}
	return true
}

// EDFQueue is a binary min-heap of job indices ordered by (deadline,
// index), the EDF priority. It is typed rather than built on
// container/heap, whose interface would box every pushed index.
type EDFQueue struct {
	jobs []sched.Job
	heap []int
}

// NewEDFQueue returns an empty queue over jobs with room for capacity
// indices before it grows.
func NewEDFQueue(jobs []sched.Job, capacity int) EDFQueue {
	return EDFQueue{jobs: jobs, heap: make([]int, 0, capacity)}
}

func (q *EDFQueue) less(a, b int) bool {
	da, db := q.jobs[a].Deadline, q.jobs[b].Deadline
	return da < db || da == db && a < b
}

// Len returns the number of queued jobs.
func (q *EDFQueue) Len() int { return len(q.heap) }

// Push queues job index j.
func (q *EDFQueue) Push(j int) {
	h := append(q.heap, j)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.heap = h
}

// Pop removes and returns the queued job with the earliest deadline,
// the smallest index among equal deadlines. The queue must not be
// empty.
func (q *EDFQueue) Pop() int {
	h := q.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && q.less(h[c+1], h[c]) {
			c++
		}
		if !q.less(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.heap = h
	return top
}

// MultiGraph builds the jobs×times bipartite graph of a multi-interval
// instance. times is the sorted distinct union of allowed times; the
// returned index maps a time to its right-vertex id.
func MultiGraph(mi sched.MultiInstance) (g *Bipartite, times []int, index map[int]int) {
	times = mi.AllTimes()
	index = make(map[int]int, len(times))
	for i, t := range times {
		index[t] = i
	}
	g = NewBipartite(mi.N(), len(times))
	for u, j := range mi.Jobs {
		for _, iv := range j.Intervals {
			for t := iv.Lo; t <= iv.Hi; t++ {
				g.AddEdge(u, index[t])
			}
		}
	}
	return g, times, index
}

// FeasibleMulti reports whether every job of the multi-interval instance
// can be assigned a distinct allowed time (maximum matching saturates the
// job side).
func FeasibleMulti(mi sched.MultiInstance) bool {
	g, _, _ := MultiGraph(mi)
	return MaxMatching(g).Size == mi.N()
}

// SolveMulti returns an arbitrary feasible schedule for the
// multi-interval instance via maximum matching, or false if infeasible.
// No attempt is made to minimize spans; this is the "any feasible
// schedule is a (1+α)-approximation" baseline of §3.
func SolveMulti(mi sched.MultiInstance) (sched.MultiSchedule, bool) {
	g, times, _ := MultiGraph(mi)
	m := MaxMatching(g)
	if m.Size != mi.N() {
		return sched.MultiSchedule{}, false
	}
	out := sched.MultiSchedule{Times: make([]int, mi.N())}
	for u := 0; u < mi.N(); u++ {
		out.Times[u] = times[m.MatchL[u]]
	}
	return out, true
}

// ExtendSchedule implements Lemma 3: given a feasible partial schedule
// (jobTimes[i] = execution time of job i, or absent) of a feasible
// instance, extend it to all jobs by repeatedly reversing augmenting
// paths, each of which adds exactly one new execution time. It returns
// the full schedule, or false if the instance is infeasible.
//
// The span guarantee of Lemma 3 — the result has at most g + (n − n′)
// spans when the partial schedule has g spans (each new execution time
// starts at most one new span; path reversal only relocates jobs among
// times that already execute something) — is verified by property tests.
func ExtendSchedule(mi sched.MultiInstance, partial map[int]int) (sched.MultiSchedule, bool) {
	g, times, index := MultiGraph(mi)
	m := Matching{
		Size:   0,
		MatchL: make([]int, g.NLeft),
		MatchR: make([]int, g.NRight),
	}
	for i := range m.MatchL {
		m.MatchL[i] = unmatched
	}
	for i := range m.MatchR {
		m.MatchR[i] = unmatched
	}
	for job, t := range partial {
		v, ok := index[t]
		if !ok || !mi.Jobs[job].Contains(t) || m.MatchR[v] != unmatched {
			return sched.MultiSchedule{}, false
		}
		m.MatchL[job] = v
		m.MatchR[v] = job
		m.Size++
	}
	for u := 0; u < g.NLeft; u++ {
		if m.MatchL[u] == unmatched && !AugmentFrom(g, &m, u) {
			return sched.MultiSchedule{}, false
		}
	}
	out := sched.MultiSchedule{Times: make([]int, mi.N())}
	for u := 0; u < mi.N(); u++ {
		out.Times[u] = times[m.MatchL[u]]
	}
	return out, true
}
