package core

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/sched"
)

// pendingAfterScan is the O(k) reference for pendingCounts: among the
// first k−1 jobs of list, those released strictly after t.
func pendingAfterScan(jobs []sched.Job, list []int, k, t int) int {
	cnt := 0
	for _, j := range list[:k-1] {
		if jobs[j].Release > t {
			cnt++
		}
	}
	return cnt
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

// TestReleasesOnGrid: every release lies on the candidate grid, and rel
// indexes it, under the anchor grid and under FullGrid.
func TestReleasesOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 400; trial++ {
		in := randomFragment(rng)
		for _, full := range []bool{false, true} {
			b := newBase(in, full)
			for j, job := range in.Jobs {
				if r := b.rel[j]; r >= len(b.grid) || b.grid[r] != job.Release {
					t.Fatalf("trial %d, full grid %v: job %d released at %d, rel %d (grid %v)",
						trial, full, j, job.Release, r, b.grid)
				}
			}
		}
	}
}

// TestPendingCountsMatchScan: the per-node pending counts equal the
// per-candidate O(k) scan at every grid index of a random range, for
// random intervals the engine can form and every k, under both grids.
func TestPendingCountsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		in := randomFragment(rng)
		for _, full := range []bool{false, true} {
			b := newBase(in, full)
			e := newEngine(b, gapModel{p: b.p})
			g := len(b.grid)
			for pair := 0; pair < 40; pair++ {
				i1, i2 := rng.Intn(g+1), rng.Intn(g+1)
				t1, t2 := e.t1val[i1], e.t2val[i2]
				if t1 > t2 {
					continue
				}
				list := b.list(t1, t2)
				for k := 1; k <= len(list); k++ {
					giLo := rng.Intn(g)
					giHi := giLo + 1 + rng.Intn(g-giLo)
					pend := make([]int, giHi-giLo)
					b.pendingCounts(list, k, giLo, giHi, pend)
					for gi := giLo; gi < giHi; gi++ {
						if got, want := pend[gi-giLo], pendingAfterScan(b.jobs, list, k, b.grid[gi]); got != want {
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
