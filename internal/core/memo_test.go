package core

import "testing"

// TestMemoPoolSteadyStateAllocs pins the point of pooling memo tables:
// once the pool is warm, a solve-sized get → put → release cycle must
// not allocate at all. AllocsPerRun's warm-up invocation primes the
// pool, so the measured runs all hit recycled tables.
func TestMemoPoolSteadyStateAllocs(t *testing.T) {
	cycle := func() {
		m := newMemoTable(8, 6, 2)
		for i1 := 0; i1 < 4; i1++ {
			for k := 0; k < 6; k++ {
				for l2 := 0; l2 < 2; l2++ {
					m.put(node{i1: i1, i2: 8, k: k, l2: l2}, entry{cost: float64(k), choice: choiceA})
				}
			}
		}
		m.release()
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("steady-state memo cycle allocates %v times per run; pooling is broken", n)
	}
}

// TestMemoPoolClearsOnGet guards against the classic pooling bug: a
// recycled table must never serve entries from its previous life.
func TestMemoPoolClearsOnGet(t *testing.T) {
	m := newMemoTable(8, 6, 2)
	nd := node{i1: 1, i2: 3, k: 2, l1: 1, l2: 1, c2: 0}
	m.put(nd, entry{cost: 7, choice: choiceA})
	m.release()
	m2 := newMemoTable(8, 6, 2)
	if _, ok := m2.get(nd); ok {
		t.Fatal("recycled memo table served a stale entry")
	}
	if m2.entries() != 0 {
		t.Fatalf("recycled memo table reports %d entries", m2.entries())
	}
	m2.release()
}

// TestMergeEntry pins the double-write resolution rules memoTable.put
// applies when branch and bound re-expands a node.
func TestMergeEntry(t *testing.T) {
	exact := entry{cost: 3, choice: choiceB}
	weak := entry{cost: 5, choice: choicePruned}
	strong := entry{cost: 9, choice: choicePruned}
	if got := mergeEntry(exact, strong); got != exact {
		t.Fatalf("marker displaced exact entry: %+v", got)
	}
	if got := mergeEntry(weak, exact); got != exact {
		t.Fatalf("exact did not displace marker: %+v", got)
	}
	if got := mergeEntry(weak, strong); got != strong {
		t.Fatalf("larger marker budget lost: %+v", got)
	}
	if got := mergeEntry(strong, weak); got != strong {
		t.Fatalf("smaller marker budget won: %+v", got)
	}
}
