package heur_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/heur"
	"repro/internal/sched"
)

// densityBySorting is the density level bound computed on its own, as
// the certificate was before it read the greedy's index: both sorts,
// the rank searches and the Fenwick tree are its own. It is the
// reference the index-based certificate must equal.
func densityBySorting(in sched.Instance) int {
	n := len(in.Jobs)
	if n == 0 {
		return 0
	}
	dls := make([]int, 0, n)
	for _, j := range in.Jobs {
		dls = append(dls, j.Deadline)
	}
	sort.Ints(dls)
	uniq := dls[:1]
	for _, d := range dls[1:] {
		if d != uniq[len(uniq)-1] {
			uniq = append(uniq, d)
		}
	}
	rank := func(d int) int { return sort.SearchInts(uniq, d) }
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return in.Jobs[order[x]].Release > in.Jobs[order[y]].Release })
	tree := make([]int, len(uniq)+1)
	add := func(pos int) {
		for i := pos + 1; i < len(tree); i += i & -i {
			tree[i]++
		}
	}
	prefix := func(pos int) (s int) {
		for i := pos + 1; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	best := 0
	for i := 0; i < n; {
		j := i
		for j < n && in.Jobs[order[j]].Release == in.Jobs[order[i]].Release {
			add(rank(in.Jobs[order[j]].Deadline))
			j++
		}
		for k := i; k < j; k++ {
			jb := in.Jobs[order[k]]
			cnt := prefix(rank(jb.Deadline))
			m := 1
			if uint(jb.Deadline)-uint(jb.Release) < uint(cnt) {
				width := jb.Deadline - jb.Release + 1
				m = (cnt + width - 1) / width
			}
			best = max(best, m)
		}
		i = j
	}
	return best
}

// checkCertificates compares both certificates of in, through the
// package functions and through s after a Greedy run, with the
// reference.
func checkCertificates(t *testing.T, s *heur.Scratch, in sched.Instance, alpha float64) {
	t.Helper()
	want := 0
	if len(in.Jobs) > 0 {
		want = max(1, densityBySorting(in))
	}
	wantPower := 0.0
	if len(in.Jobs) > 0 {
		wantPower = float64(len(in.Jobs)) + alpha*float64(want)
	}
	if got := heur.FragmentSpanLB(in); got != want {
		t.Fatalf("FragmentSpanLB = %d, reference %d (jobs %v procs %d)", got, want, in.Jobs, in.Procs)
	}
	if got := heur.FragmentPowerLB(in, alpha); got != wantPower {
		t.Fatalf("FragmentPowerLB(α = %v) = %v, reference %v (jobs %v procs %d)", alpha, got, wantPower, in.Jobs, in.Procs)
	}
	if s == nil {
		return
	}
	s.Greedy(in) // feasible or not, the run indexes in
	if got := s.SpanLB(); got != want {
		t.Fatalf("Scratch.SpanLB after Greedy = %d, reference %d (jobs %v procs %d)", got, want, in.Jobs, in.Procs)
	}
	if got := s.PowerLB(alpha); got != wantPower {
		t.Fatalf("Scratch.PowerLB(α = %v) after Greedy = %v, reference %v (jobs %v procs %d)", alpha, got, wantPower, in.Jobs, in.Procs)
	}
}

// TestCertificateMatchesReference: the certificates read from the
// greedy's index equal the density bound computed by its own sorts, on
// random instances whose releases repeat (the equal-release groups the
// sweep must insert before querying) and on a Scratch reused across
// instances of every size.
func TestCertificateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s heur.Scratch
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(60)
		releases := 1 + rng.Intn(8) // few distinct releases: many ties
		base := rng.Intn(2000) - 1000
		jobs := make([]sched.Job, n)
		for i := range jobs {
			r := base + 3*rng.Intn(releases)
			jobs[i] = sched.Job{Release: r, Deadline: r + rng.Intn(1+rng.Intn(20))}
		}
		in := sched.NewMultiprocInstance(jobs, 1+rng.Intn(4))
		checkCertificates(t, &s, in, float64(rng.Intn(9))/2)
	}
}

// TestCertificateOnFullIntWindows: windows reaching both ends of int,
// alone or beside narrow ones, give the reference bound. The index
// shifts times to the earliest release, which wraps the shifted
// deadline of [MinInt, MaxInt]; the bound must not see the wrap.
func TestCertificateOnFullIntWindows(t *testing.T) {
	full := sched.Job{Release: math.MinInt, Deadline: math.MaxInt}
	others := []sched.Job{
		{Release: 0, Deadline: 0},
		{Release: math.MinInt, Deadline: math.MinInt},
		{Release: math.MaxInt, Deadline: math.MaxInt},
		{Release: -5, Deadline: 5},
		{Release: math.MinInt, Deadline: 0},
		{Release: 0, Deadline: math.MaxInt},
		{Release: math.MaxInt - 1, Deadline: math.MaxInt},
	}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 300; trial++ {
		var jobs []sched.Job
		for k := 1 + rng.Intn(4); k > 0; k-- {
			jobs = append(jobs, full)
		}
		for k := rng.Intn(6); k > 0; k-- {
			jobs = append(jobs, others[rng.Intn(len(others))])
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		checkCertificates(t, nil, sched.NewMultiprocInstance(jobs, 1+rng.Intn(2)), 2)
	}
}
