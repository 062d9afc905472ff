package core

import "math/bits"

// memoTable memoizes DP entries under a flat, index-encoded key: a node
// is folded into a single dense integer (interval-pair index × k × l1 ×
// l2 × c2) and stored in an open-addressing table probed linearly. The
// DP visits a vanishingly small fraction of its index space (hundreds of
// states out of millions of indices on typical instances), so the table
// is sized by occupancy, not by the index space; encoding the key up
// front still buys single-word hashing and comparison instead of the
// struct hashing a map[state] key pays per lookup.
//
// Each slot is split in two. dp's hit path needs only a cost and
// whether it is a prune marker, so the probed array holds 16-byte hot
// slots {key, cost}, with the marker flag in the key's sign bit; the
// reconstruction fields sit in a parallel cold array that only put
// writes and only rebuild reads. Both arrays are leased from the
// workspace's slotStore, one pair per power-of-two size class, and
// handed back by release once the solve has rebuilt its schedule, so a
// fragment solve allocates no table after warm-up and clears only the
// hot slots it leases.
//
// For pathologically large instances whose index space would overflow
// int64, the table degrades to a hash map keyed by the node itself.
type memoTable struct {
	// Strides of the dense encoding: index(nd) =
	// ((((i1·d1 + i2)·d2 + k)·d3 + l1)·d3 + l2)·d3 + c2.
	d1, d2, d3 int64

	store  *slotStore     // where tab is leased from and returned to
	tab    slotArrays     // leased storage; empty once released
	mask   uint64         // len(tab.hot) − 1
	sparse map[node]entry // fallback when the index space overflows
	size   int            // number of memoized entries
}

// slotArrays is one table's storage: hot[i] and cold[i] are the two
// halves of slot i. Both have the same power-of-two length.
type slotArrays struct {
	hot  []hotSlot
	cold []coldSlot
}

// hotSlot is what a probe reads. key is the dense index plus one, so
// the zero value marks an empty slot, and a prune marker's key carries
// markerBit: indices stay below maxIndexSpace = 2^62, so the sign bit
// is free.
type hotSlot struct {
	key  int64
	cost float64
}

// coldSlot holds an exact entry's reconstruction fields. A marker
// leaves its cold slot unwritten and is read back from the hot slot
// alone, so a cold slot is always written before it is read and leased
// arrays need not clear their cold half.
type coldSlot struct {
	tp      int32
	lp, lpp int16
	choice  int8
}

const (
	// minSlots and maxInitialSlots bound a fresh table's size; see
	// initialSlots.
	minSlots, maxInitialSlots = 1 << 4, 1 << 10

	// maxIndexSpace guards the dense encoding against int64 overflow.
	maxIndexSpace = int64(1) << 62

	// markerBit flags a hot slot's key as a prune marker.
	markerBit = -1 << 63
)

// slotStore keeps memo storage between solves: at most one pair of
// arrays per size class, slotStore[b] holding 1<<b slots, up to
// maxKeptClass. A larger pair is never kept (see maxKeptBytes).
type slotStore [maxKeptClass + 1]slotArrays

// maxKeptClass is the largest size class a slotStore keeps: 2^18 slots,
// whose hot half is maxKeptBytes and cold half three quarters of it.
const maxKeptClass = 18

// lease returns arrays of size slots (a power of two) with every hot
// slot empty, taken from the store when it holds that class.
func (s *slotStore) lease(size int) slotArrays {
	if b := bits.TrailingZeros(uint(size)); b < len(s) && s[b].hot != nil {
		a := s[b]
		s[b] = slotArrays{}
		clear(a.hot)
		return a
	}
	return slotArrays{hot: make([]hotSlot, size), cold: make([]coldSlot, size)}
}

// put keeps a for a later lease, unless its class is above the cap.
func (s *slotStore) put(a slotArrays) {
	if b := bits.TrailingZeros(uint(len(a.hot))); b < len(s) {
		s[b] = a
	}
}

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

// init makes m an empty table for a (g, n, p)-shaped fragment whose
// storage is leased from store.
func (m *memoTable) init(g, n, p int, store *slotStore) {
	*m = memoTable{d1: int64(g) + 1, d2: int64(n) + 1, d3: int64(p) + 1, store: store}
	if !denseIndexSpaceFits(g, n, p) {
		m.sparse = make(map[node]entry)
		return
	}
	m.use(store.lease(initialSlots(n)))
}

func (m *memoTable) use(a slotArrays) {
	m.tab, m.mask = a, uint64(len(a.hot)-1)
}

// release hands the slot arrays back to the store. The table must not
// be read or written afterwards; entries stays valid.
func (m *memoTable) release() {
	if m.tab.hot != nil {
		m.store.put(m.tab)
		m.tab = slotArrays{}
	}
}

func (m *memoTable) entries() int { return m.size }

// index takes nd by pointer: a node has too many fields to live in
// registers, and an inlined by-value copy moved it in 16-byte loads
// across the 8-byte stores that had just spilled it, stalling every
// lookup on store forwarding.
func (m *memoTable) index(nd *node) int64 {
	return ((((int64(nd.i1)*m.d1+int64(nd.i2))*m.d2+int64(nd.k))*m.d3+
		int64(nd.l1))*m.d3+int64(nd.l2))*m.d3 + int64(nd.c2)
}

// hash spreads the dense index across the table: Fibonacci hashing with
// the product's high half folded into the low bits the mask keeps. The
// low b bits of a product depend only on the key's low b bits, so
// without the fold, keys that agree there would share a home slot
// whatever their high bits.
func hash(key int64) uint64 {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// find returns the slot holding key, or else the empty slot that ends
// key's probe run.
func (m *memoTable) find(key int64) (uint64, bool) {
	hot := m.tab.hot
	for i := hash(key) & m.mask; ; i = (i + 1) & m.mask {
		switch hot[i].key &^ markerBit {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// lookup is dp's hit path: nd's memoized cost and whether it is a prune
// marker, read from one hot slot.
func (m *memoTable) lookup(nd node) (cost float64, marker, ok bool) {
	if m.sparse != nil {
		e, ok := m.sparse[nd]
		return e.cost, e.choice == choicePruned, ok
	}
	i, ok := m.find(m.index(&nd) + 1)
	s := m.tab.hot[i]
	return s.cost, s.key < 0, ok
}

func (m *memoTable) get(nd node) (entry, bool) {
	if m.sparse != nil {
		e, ok := m.sparse[nd]
		return e, ok
	}
	i, ok := m.find(m.index(&nd) + 1)
	if !ok {
		return entry{}, false
	}
	return m.at(i), true
}

// at reads the entry in occupied slot i.
func (m *memoTable) at(i uint64) entry {
	h := m.tab.hot[i]
	if h.key < 0 {
		return entry{cost: h.cost, choice: choicePruned}
	}
	c := m.tab.cold[i]
	return entry{cost: h.cost, tp: c.tp, lp: c.lp, lpp: c.lpp, choice: c.choice}
}

// set writes e under key into slot i.
func (m *memoTable) set(i uint64, key int64, e entry) {
	if e.choice == choicePruned {
		m.tab.hot[i] = hotSlot{key: key | markerBit, cost: e.cost}
		return
	}
	m.tab.hot[i] = hotSlot{key: key, cost: e.cost}
	m.tab.cold[i] = coldSlot{tp: e.tp, lp: e.lp, lpp: e.lpp, choice: e.choice}
}

// put stores an entry, resolving rewrites of an occupied key with
// mergeEntry: branch and bound revisits a node when a caller arrives
// with a looser budget than the one its prune marker recorded, and the
// re-expansion writes either an exact entry or a stronger marker.
func (m *memoTable) put(nd node, e entry) {
	if m.sparse != nil {
		if old, ok := m.sparse[nd]; ok {
			m.sparse[nd] = mergeEntry(old, e)
			return
		}
		m.size++
		m.sparse[nd] = e
		return
	}
	if 4*(m.size+1) >= 3*len(m.tab.hot) {
		m.grow()
	}
	key := m.index(&nd) + 1
	i, ok := m.find(key)
	if ok {
		e = mergeEntry(m.at(i), e)
	} else {
		m.size++
	}
	m.set(i, key, e)
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

// grow moves every slot into arrays of the next size class and returns
// the old arrays to the store.
func (m *memoTable) grow() {
	old := m.tab
	m.use(m.store.lease(2 * len(old.hot)))
	for i, h := range old.hot {
		if h.key != 0 {
			j, _ := m.find(h.key &^ markerBit)
			m.tab.hot[j], m.tab.cold[j] = h, old.cold[i]
		}
	}
	m.store.put(old)
}
