package core

// memoTable memoizes DP entries under a flat, index-encoded key: a node
// is folded into a single dense integer (interval-pair index × k × l1 ×
// l2 × c2) and stored in an open-addressing table probed linearly. The
// DP visits a vanishingly small fraction of its index space (hundreds of
// states out of millions of indices on typical instances), so the table
// is sized by occupancy, not by the index space; encoding the key up
// front still buys single-word hashing and comparison instead of the
// struct hashing a map[state] key pays per lookup.
//
// For pathologically large instances whose index space would overflow
// int64, the table degrades to a hash map keyed by the node itself.
type memoTable struct {
	// Strides of the dense encoding: index(nd) =
	// ((((i1·d1 + i2)·d2 + k)·d3 + l1)·d3 + l2)·d3 + c2.
	d1, d2, d3 int64

	slots  []slot         // open addressing, power-of-two length
	mask   uint64         // len(slots) − 1
	sparse map[node]entry // fallback when the index space overflows
	size   int            // number of memoized entries
}

// slot pairs an encoded key with its entry. key is the dense index
// plus one, so the zero value marks an empty slot.
type slot struct {
	key int64
	e   entry
}

const (
	// minSlots and maxInitialSlots bound a fresh table's size; see
	// initialSlots.
	minSlots, maxInitialSlots = 1 << 4, 1 << 10

	// maxIndexSpace guards the dense encoding against int64 overflow.
	maxIndexSpace = int64(1) << 62
)

// initialSlots sizes a fresh table for an n-job fragment: 16 slots per
// job, rounded up to a power of two within [minSlots, maxInitialSlots].
// One-job fragments, the bulk of a decomposed instance, memoize 4
// states and clear 16 slots rather than 1024; from 64 jobs on a table
// starts at the cap. The table doubles on demand.
func initialSlots(n int) int {
	size := minSlots
	for size < 16*n && size < maxInitialSlots {
		size *= 2
	}
	return size
}

// denseIndexSpaceFits reports whether a (g, n, p)-shaped instance can
// use the dense flat encoding, memoTable's fast path.
func denseIndexSpaceFits(g, n, p int) bool {
	d1, d2, d3 := int64(g)+1, int64(n)+1, int64(p)+1
	space := int64(1)
	for _, dim := range [...]int64{d1, d1, d2, d3, d3, d3} {
		if space > maxIndexSpace/dim {
			return false
		}
		space *= dim
	}
	return true
}

func newMemoTable(g, n, p int) *memoTable {
	m := &memoTable{d1: int64(g) + 1, d2: int64(n) + 1, d3: int64(p) + 1}
	if !denseIndexSpaceFits(g, n, p) {
		m.sparse = make(map[node]entry)
		return m
	}
	m.slots = make([]slot, initialSlots(n))
	m.mask = uint64(len(m.slots) - 1)
	return m
}

func (m *memoTable) entries() int { return m.size }

func (m *memoTable) index(nd node) int64 {
	return ((((int64(nd.i1)*m.d1+int64(nd.i2))*m.d2+int64(nd.k))*m.d3+
		int64(nd.l1))*m.d3+int64(nd.l2))*m.d3 + int64(nd.c2)
}

// hash spreads the dense index across the table (Fibonacci hashing).
func hash(key int64) uint64 {
	return uint64(key) * 0x9E3779B97F4A7C15
}

func (m *memoTable) get(nd node) (entry, bool) {
	if m.slots == nil {
		e, ok := m.sparse[nd]
		return e, ok
	}
	key := m.index(nd) + 1
	for i := hash(key) & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == key {
			return s.e, true
		}
		if s.key == 0 {
			return entry{}, false
		}
	}
}

// put stores an entry, resolving rewrites of an occupied key with
// mergeEntry: branch and bound revisits a node when a caller arrives
// with a looser budget than the one its prune marker recorded, and the
// re-expansion writes either an exact entry or a stronger marker.
func (m *memoTable) put(nd node, e entry) {
	if m.slots == nil {
		if old, ok := m.sparse[nd]; ok {
			m.sparse[nd] = mergeEntry(old, e)
			return
		}
		m.size++
		m.sparse[nd] = e
		return
	}
	if 4*(m.size+1) >= 3*len(m.slots) {
		m.grow()
	}
	key := m.index(nd) + 1
	for i := hash(key) & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == key {
			s.e = mergeEntry(s.e, e)
			return
		}
		if s.key == 0 {
			s.key = key
			s.e = e
			m.size++
			return
		}
	}
}

// mergeEntry decides a double write: an exact result always wins over a
// prune marker (and an exact rewrite is byte-identical, so the old one
// stands); between two markers the larger certified budget wins.
func mergeEntry(old, new entry) entry {
	if old.choice != choicePruned {
		return old
	}
	if new.choice != choicePruned || new.cost > old.cost {
		return new
	}
	return old
}

func (m *memoTable) insert(key int64, e entry) {
	for i := hash(key) & m.mask; ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key == 0 {
			s.key = key
			s.e = e
			return
		}
	}
}

func (m *memoTable) grow() {
	old := m.slots
	m.slots = make([]slot, 2*len(old))
	m.mask = uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.key != 0 {
			m.insert(s.key, s.e)
		}
	}
}
