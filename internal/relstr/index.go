package relstr

// Integer tuple hashing and the TupleSet container. These are the
// allocation-light replacements for the string Tuple.Key() maps the
// evaluation hot path used to run on: a tuple is hashed directly from
// its int values (splitmix-style mixing, no intermediate string), and
// membership is an open-addressed bucket walk comparing ints.

// hashTuple mixes the values of t into a 64-bit hash. Equal tuples
// hash equally; the avalanche steps keep small integer domains (the
// common case: dense element ids) from clustering into few buckets.
func hashTuple(t []int) uint64 {
	h := uint64(len(t)) + 0x9E3779B97F4A7C15
	for _, v := range t {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// HashCols is hashTuple restricted to the given columns of a row: the
// probe-key hash of the evaluation runtime's relation indexes. Two
// (row, cols) pairs reading equal value sequences hash equally.
func HashCols(row []int, cols []int) uint64 {
	h := uint64(len(cols)) + 0x9E3779B97F4A7C15
	for _, c := range cols {
		h = mix64(h ^ uint64(row[c]))
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// TupleSet is a deduplicated, insertion-ordered set of integer tuples,
// indexed by an open-addressed bucket table over integer hashes. The
// zero value is ready to use. Not safe for concurrent mutation.
type TupleSet struct {
	rows []Tuple
	head []int32 // bucket → first row id +1 (0 = empty); len is a power of two
	next []int32 // row id → next row id +1 in the same bucket
	mask uint64
}

// Len returns the number of distinct tuples in the set.
func (s *TupleSet) Len() int { return len(s.rows) }

// Rows returns the tuples in insertion order. The slice is owned by
// the set and must not be modified.
func (s *TupleSet) Rows() []Tuple { return s.rows }

// Has reports whether t is in the set.
func (s *TupleSet) Has(t []int) bool {
	if len(s.rows) == 0 {
		return false
	}
	for id := s.head[hashTuple(t)&s.mask]; id != 0; id = s.next[id-1] {
		if Tuple(t).Equal(s.rows[id-1]) {
			return true
		}
	}
	return false
}

// Add inserts t if absent, reporting whether it was newly added. The
// set keeps a reference to t: callers that reuse the backing array
// must pass a copy (or use AddCopy).
func (s *TupleSet) Add(t Tuple) bool {
	if s.Has(t) {
		return false
	}
	s.insert(t)
	return true
}

// AddCopy is Add for callers whose tuple buffer may be reused: the
// set stores a fresh copy of t, made only when t is actually new.
func (s *TupleSet) AddCopy(t []int) bool {
	if s.Has(t) {
		return false
	}
	s.insert(Tuple(t).Clone())
	return true
}

// insert appends a known-absent tuple and links it into its bucket.
func (s *TupleSet) insert(t Tuple) {
	if len(s.rows) >= len(s.head)*3/4 {
		s.grow()
	}
	s.rows = append(s.rows, t)
	s.next = append(s.next, 0)
	b := hashTuple(t) & s.mask
	id := int32(len(s.rows)) // +1 encoded
	s.next[id-1] = s.head[b]
	s.head[b] = id
}

// Remove deletes t if present, reporting whether it was removed.
// Removal preserves the insertion order of the remaining tuples. Row
// ids above the removed row shift down by one, so the bucket links are
// renumbered in place — two linear int passes, no rehashing.
func (s *TupleSet) Remove(t []int) bool {
	if len(s.rows) == 0 {
		return false
	}
	b := hashTuple(t) & s.mask
	id := int32(0)
	for p := &s.head[b]; *p != 0; p = &s.next[*p-1] {
		if Tuple(t).Equal(s.rows[*p-1]) {
			id = *p
			*p = s.next[id-1]
			break
		}
	}
	if id == 0 {
		return false
	}
	i := int(id - 1)
	s.rows = append(s.rows[:i], s.rows[i+1:]...)
	s.next = append(s.next[:i], s.next[i+1:]...)
	for j := range s.head {
		if s.head[j] > id {
			s.head[j]--
		}
	}
	for j := range s.next {
		if s.next[j] > id {
			s.next[j]--
		}
	}
	return true
}

// grow doubles the bucket table (at least to a small minimum) and
// rehashes.
func (s *TupleSet) grow() {
	n := len(s.head) * 2
	if n < 8 {
		n = 8
	}
	s.head = make([]int32, n)
	s.mask = uint64(n - 1)
	s.rehash()
}

// rehash reinserts every row into the (cleared) bucket table.
func (s *TupleSet) rehash() {
	for i := range s.head {
		s.head[i] = 0
	}
	for i, row := range s.rows {
		b := hashTuple(row) & s.mask
		s.next[i] = s.head[b]
		s.head[b] = int32(i + 1)
	}
}
