package core

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/sched"
)

// pendingAfterScan is the O(k) reference for the index's pending
// counts: among the first k−1 jobs of list, those released strictly
// after t.
func pendingAfterScan(jobs []sched.Job, list []int, k, t int) int {
	cnt := 0
	for _, j := range list[:k-1] {
		if jobs[j].Release > t {
			cnt++
		}
	}
	return cnt
}

// listScan is the reference for a node's job set: the jobs released in
// [t1, t2], in deadline order, by a scan of byDL.
func listScan(b *base, t1, t2 int) []int {
	var l []int
	for _, j := range b.byDL {
		if a := b.jobs[j].Release; t1 <= a && a <= t2 {
			l = append(l, j)
		}
	}
	return l
}

// caseBScan is the reference for j_k's case-B candidates: the
// half-open range of grid indices whose times lie in job's window and
// in [t1, t2−1], found by binary search over the grid times; an empty
// range is (0, 0).
func caseBScan(b *base, job sched.Job, t1, t2 int) (int, int) {
	lo, hi := sort.SearchInts(b.grid, max(job.Release, t1)), sort.SearchInts(b.grid, min(job.Deadline, t2-1)+1)
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// randomFragment draws a small instance whose windows may straddle
// several anchor neighbourhoods, so both grids have gaps and clusters.
func randomFragment(rng *rand.Rand) sched.Instance {
	n := 1 + rng.Intn(9)
	spread := 1 + rng.Intn(60)
	jobs := make([]sched.Job, n)
	for i := range jobs {
		r := rng.Intn(spread)
		jobs[i] = sched.Job{Release: r, Deadline: r + rng.Intn(12)}
	}
	return sched.Instance{Jobs: jobs, Procs: 1 + rng.Intn(3)}
}

// sparseFragment draws an instance whose release ranks differ from
// their grid indices: clusters of several releases within one anchor
// neighbourhood, the clusters more than 2n apart so that their
// neighbourhoods never merge, and now and then a window reaching into
// the next cluster, so that case-B ranges cross the grid's gaps.
func sparseFragment(rng *rand.Rand) sched.Instance {
	n := 2 + rng.Intn(8)
	stride := 2*n + 2 + rng.Intn(30)
	clusters := 1 + rng.Intn(3)
	jobs := make([]sched.Job, n)
	for i := range jobs {
		r := rng.Intn(clusters)*stride + rng.Intn(3)
		d := r + rng.Intn(3)
		if rng.Intn(4) == 0 {
			d += stride
		}
		jobs[i] = sched.Job{Release: r, Deadline: d}
	}
	return sched.Instance{Jobs: jobs, Procs: 1 + rng.Intn(3)}
}

// TestReleasesOnGrid: every release lies on the candidate grid, and rel
// indexes it, under the anchor grid and under FullGrid — also for
// releases at the ends of int, whose anchor neighbourhoods must clip
// to the horizon rather than wrap.
func TestReleasesOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ins := []sched.Instance{
		{Jobs: []sched.Job{{Release: math.MinInt, Deadline: math.MinInt}, {Release: math.MinInt + 5, Deadline: math.MinInt + 5}}, Procs: 1},
		{Jobs: []sched.Job{{Release: math.MaxInt - 5, Deadline: math.MaxInt - 5}, {Release: math.MaxInt, Deadline: math.MaxInt}}, Procs: 1},
	}
	for trial := 0; trial < 400; trial++ {
		ins = append(ins, randomFragment(rng))
	}
	var w workspace
	for trial, in := range ins {
		for _, full := range []bool{false, true} {
			w.reset(in, full)
			for j, job := range in.Jobs {
				if r := w.rel[j]; r >= len(w.grid) || w.grid[r] != job.Release {
					t.Fatalf("trial %d, full grid %v: job %d released at %d, rel %d (grid %v)",
						trial, full, j, job.Release, r, w.grid)
				}
			}
		}
	}
}

// TestPendingCountsMatchScan: the interval index answers every query
// the engine makes as the per-interval lists it replaces did. For
// random intervals the engine can form (t1 ≤ t2) and every k, under
// both grids: the node's job count is the list's length, the k-th job
// is the list's, j_k's case-B range is the one binary search over the
// grid times finds, and the pending count at every grid time of the
// interval equals the O(k) scan of the list. Half the fragments are
// sparse, so release ranks and grid indices differ.
func TestPendingCountsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	checked := 0
	var w workspace
	for trial := 0; trial < 400; trial++ {
		in := randomFragment(rng)
		if trial%2 == 1 {
			in = sparseFragment(rng)
		}
		for _, full := range []bool{false, true} {
			w.reset(in, full)
			b := &w.base
			g := len(b.grid)
			for pair := 0; pair < 40; pair++ {
				i1, i2 := rng.Intn(g+1), rng.Intn(g+1)
				if i1 > i2 {
					continue
				}
				t1, t2 := b.t1val[i1], b.t2val[i2]
				list := listScan(b, t1, t2)
				lo, hi := b.columns(i1, i2)
				if got := b.count(len(b.byDL), lo, hi); got != len(list) {
					t.Fatalf("trial %d, full grid %v, [%d,%d]: %d jobs, list %v (jobs %v)", trial, full, t1, t2, got, list, in.Jobs)
				}
				for k := 1; k <= len(list); k++ {
					q := b.kth(k, lo, hi)
					jk := b.byDL[q]
					if jk != list[k-1] || b.count(q, lo, hi) != k-1 {
						t.Fatalf("trial %d, full grid %v, [%d,%d] k=%d: j_k %d after %d own jobs, list %v (jobs %v)",
							trial, full, t1, t2, k, jk, b.count(q, lo, hi), list, in.Jobs)
					}
					giLo, giHi := max(b.rel[jk], i1), min(b.dlx[jk], i2)
					if giLo >= giHi {
						giLo, giHi = 0, 0
					}
					if wantLo, wantHi := caseBScan(b, in.Jobs[jk], t1, t2); giLo != wantLo || giHi != wantHi {
						t.Fatalf("trial %d, full grid %v, [%d,%d] k=%d: case-B range [%d,%d), scan [%d,%d) (jobs %v)",
							trial, full, t1, t2, k, giLo, giHi, wantLo, wantHi, in.Jobs)
					}
					for gi := i1; gi < min(i2, g); gi++ {
						if got, want := b.count(q, int(b.rank[gi+1]), hi), pendingAfterScan(b.jobs, list, k, b.grid[gi]); got != want {
							t.Fatalf("trial %d, full grid %v, [%d,%d] k=%d, t′=%d: pending %d, scan %d (jobs %v)",
								trial, full, t1, t2, k, b.grid[gi], got, want, in.Jobs)
						}
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate checked")
	}
}

// TestNodeLBNonIncreasingInL1 pins the costModel.nodeLB contract
// evalSplit relies on to bound a right child over every boundary level
// by its value at l1 = p: raising the starting level never raises the
// bound, for both models and a spread of transition costs.
func TestNodeLBNonIncreasingInL1(t *testing.T) {
	const p = 4
	models := map[string]func(k, l1, l2, c2, t1, t2 int) float64{
		"gaps": gapModel{p: p}.nodeLB,
	}
	for _, alpha := range []float64{0, 0.5, 2, 8} {
		models["power/α="+strconv.FormatFloat(alpha, 'g', -1, 64)] = powerModel{p: p, alpha: alpha}.nodeLB
	}
	for name, lb := range models {
		for k := 0; k <= 9; k++ {
			for l2 := 0; l2 <= p; l2++ {
				for c2 := 0; c2 <= p; c2++ {
					for t1 := 0; t1 <= 2; t1++ {
						for t2 := t1; t2 <= t1+6; t2++ {
							for l1 := 0; l1 < p; l1++ {
								if lo, hi := lb(k, l1, l2, c2, t1, t2), lb(k, l1+1, l2, c2, t1, t2); hi > lo {
									t.Fatalf("%s: nodeLB(k=%d, l1=%d, l2=%d, c2=%d, [%d,%d]) = %v rises to %v at l1+1",
										name, k, l1, l2, c2, t1, t2, lo, hi)
								}
							}
						}
					}
				}
			}
		}
	}
}
