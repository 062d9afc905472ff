package core

import "testing"

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
