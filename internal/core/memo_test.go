package core

import (
	"math/rand"
	"testing"
)

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

// TestMemoSparseFallbackMatchesDense replays one sequence of writes —
// exact entries, prune markers and the rewrites mergeEntry resolves —
// against a dense table and against one whose index space overflows
// int64, so that it falls back to map[node]entry. The two must answer
// every lookup alike and count the same entries.
func TestMemoSparseFallbackMatchesDense(t *testing.T) {
	const g, n, p = 7, 6, 3
	dense := newMemoTable(g, n, p)
	sparse := newMemoTable(1<<20, 1<<12, 1<<12)
	if dense.sparse != nil || sparse.sparse == nil {
		t.Fatalf("want one dense and one sparse table, got sparse maps %v and %v",
			dense.sparse != nil, sparse.sparse != nil)
	}
	rng := rand.New(rand.NewSource(1))
	// A small pool of nodes, so most writes rewrite an occupied key.
	pool := make([]node, 300)
	for i := range pool {
		pool[i] = node{i1: rng.Intn(g + 1), i2: rng.Intn(g + 1), k: rng.Intn(n + 1),
			l1: rng.Intn(p + 1), l2: rng.Intn(p + 1), c2: rng.Intn(p + 1)}
	}
	for op := 0; op < 4000; op++ {
		nd := pool[rng.Intn(len(pool))]
		if rng.Intn(4) > 0 {
			e := entry{cost: float64(rng.Intn(30)), choice: choicePruned}
			if rng.Intn(3) == 0 {
				e = entry{cost: float64(rng.Intn(30)), tp: int32(rng.Intn(g + 1)),
					lp: int16(rng.Intn(p+2) - 1), lpp: int16(rng.Intn(p + 1)), choice: choiceB}
			}
			dense.put(nd, e)
			sparse.put(nd, e)
		}
		de, dok := dense.get(nd)
		se, sok := sparse.get(nd)
		if de != se || dok != sok {
			t.Fatalf("op %d node %+v: dense (%+v, %v), sparse (%+v, %v)", op, nd, de, dok, se, sok)
		}
	}
	if dense.entries() != sparse.entries() || dense.entries() == 0 {
		t.Fatalf("entries: dense %d, sparse %d", dense.entries(), sparse.entries())
	}
	// Every node of the dense index space, written or not.
	var nd node
	for nd.i1 = 0; nd.i1 <= g; nd.i1++ {
		for nd.i2 = 0; nd.i2 <= g; nd.i2++ {
			for nd.k = 0; nd.k <= n; nd.k++ {
				for nd.l1 = 0; nd.l1 <= p; nd.l1++ {
					for nd.l2 = 0; nd.l2 <= p; nd.l2++ {
						for nd.c2 = 0; nd.c2 <= p; nd.c2++ {
							de, dok := dense.get(nd)
							se, sok := sparse.get(nd)
							if de != se || dok != sok {
								t.Fatalf("node %+v: dense (%+v, %v), sparse (%+v, %v)", nd, de, dok, se, sok)
							}
						}
					}
				}
			}
		}
	}
}
