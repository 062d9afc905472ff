// Package feas provides the feasibility substrate used throughout the
// repository: Hopcroft–Karp bipartite matching between jobs and time
// units, one-interval feasibility (Hall's condition, decided by an
// O(n log n) earliest-deadline-first sweep that also builds the EDF
// schedule), and the augmenting-path schedule extension of Lemma 3.
package feas

// Bipartite is a bipartite graph between nLeft left vertices (jobs) and
// nRight right vertices (time slots), given by adjacency lists.
type Bipartite struct {
	NLeft  int
	NRight int
	Adj    [][]int // Adj[u] lists right-neighbours of left vertex u
}

// NewBipartite allocates a graph with the given part sizes.
func NewBipartite(nLeft, nRight int) *Bipartite {
	return &Bipartite{NLeft: nLeft, NRight: nRight, Adj: make([][]int, nLeft)}
}

// AddEdge connects left vertex u to right vertex v.
func (g *Bipartite) AddEdge(u, v int) { g.Adj[u] = append(g.Adj[u], v) }

// Matching is the result of a maximum-matching computation.
// MatchL[u] is the right vertex matched to left u (−1 if unmatched);
// MatchR[v] is the left vertex matched to right v (−1 if unmatched).
type Matching struct {
	Size   int
	MatchL []int
	MatchR []int
}

const unmatched = -1

// MaxMatching computes a maximum-cardinality matching with the
// Hopcroft–Karp algorithm in O(E·√V).
func MaxMatching(g *Bipartite) Matching {
	matchL := make([]int, g.NLeft)
	matchR := make([]int, g.NRight)
	for i := range matchL {
		matchL[i] = unmatched
	}
	for i := range matchR {
		matchR[i] = unmatched
	}
	dist := make([]int, g.NLeft)
	queue := make([]int, 0, g.NLeft)

	const inf = int(^uint(0) >> 1)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < g.NLeft; u++ {
			if matchL[u] == unmatched {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range g.Adj[u] {
				w := matchR[v]
				if w == unmatched {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range g.Adj[u] {
			w := matchR[v]
			if w == unmatched || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	size := 0
	for bfs() {
		for u := 0; u < g.NLeft; u++ {
			if matchL[u] == unmatched && dfs(u) {
				size++
			}
		}
	}
	return Matching{Size: size, MatchL: matchL, MatchR: matchR}
}

// AugmentFrom attempts to grow an existing matching by one edge starting
// from the unmatched left vertex u, using a simple alternating BFS. It
// mutates m in place and reports success. This is the primitive behind
// the Lemma 3 schedule-extension procedure, where each successful
// augmentation adds exactly one new execution time to a partial schedule.
func AugmentFrom(g *Bipartite, m *Matching, u int) bool {
	if m.MatchL[u] != unmatched {
		return false
	}
	parent := make(map[int]int) // right vertex -> left vertex that discovered it
	queue := []int{u}
	var endRight = -1
	visitedL := make(map[int]bool)
	visitedL[u] = true
search:
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, v := range g.Adj[cur] {
			if _, seen := parent[v]; seen {
				continue
			}
			parent[v] = cur
			w := m.MatchR[v]
			if w == unmatched {
				endRight = v
				break search
			}
			if !visitedL[w] {
				visitedL[w] = true
				queue = append(queue, w)
			}
		}
	}
	if endRight == -1 {
		return false
	}
	// Flip the alternating path.
	v := endRight
	for {
		l := parent[v]
		prev := m.MatchL[l]
		m.MatchL[l] = v
		m.MatchR[v] = l
		if prev == unmatched && l == u {
			break
		}
		v = prev
	}
	m.Size++
	return true
}
