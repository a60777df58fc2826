package eval

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
)

// Dense key-summary kernels. The executor's one per-row probe loop,
// the semijoin step — Boolean, or weighted for the counting DP — tests
// every live target row against the source side. Through a hash index
// that is one bucket chain walk per target row, repeated for every
// target row sharing a key. When the key's first column holds small non-negative ints
// (dense element ids, the common case) the step instead summarises the
// source once, and each target row then costs one array read or one
// binary search: O(|S_live|+|T_live|) plus the search, no index build,
// no chain walk. A one-column semijoin key is a bitset of the source's
// live key values; a key of two or more columns groups the source's
// live rows by their first key column with a counting sort, keeping
// the other key columns flat in each group (keyGroups). A probe scans
// a small group and binary-searches a larger, sorted one, so it stays
// O(log d) on a hub key with d partners. A weighted step's summary is
// an array of per-key weight sums, for a one-column key only.
//
// The bitset and the group offsets cover first-column keys in
// [0, bitLimit): eight bits per row on both sides plus a constant, so
// the bitset costs at most about a byte per row against about twelve
// for a chained index, and the offsets at most 32 bytes per row. A
// weighted step's sum array spends eight bytes per key, so it covers
// only [0, sumLimit): one key per row on both sides plus a constant. A
// source key outside the bound (negative, huge, or sparse values) and
// every weighted key of two or more columns fall back to the view
// index. The choice depends only on the data; every kernel kills and
// weighs exactly the same rows, so answers never depend on it.

// bitLimit is the exclusive bound on the first-column key values a
// semijoin's summary covers for a step between tLive target and sLive
// source rows.
func bitLimit(tLive, sLive int) int { return 8*(tLive+sLive) + 4096 }

// sumLimit is the exclusive bound on the key values a weighted step's
// sum array covers for tLive target and sLive source rows.
func sumLimit(tLive, sLive int) int { return tLive + sLive + 512 }

// keyBuf is a pooled summary buffer. Sibling steps run concurrently,
// so each step draws its own and returns it when its filter is done.
type keyBuf struct {
	w    []uint64
	off  []int32 // keyGroups' offsets
	rest []int   // keyGroups' other key columns
}

// keyBufs holds the free summary buffers, one slot per core — as many
// as steps run at once under a worker budget that fits the machine.
var keyBufs = make(freeList[keyBuf], runtime.GOMAXPROCS(0))

// freeList is a pool of released values, one slot per core. Unlike a
// sync.Pool it keeps them across GCs: a summary buffer dropped at a GC
// was regrown by doubling in the next step, so the allocations of a
// call depended on GC timing. get allocates when every slot is empty,
// and put leaves x to the collector when every slot is taken.
type freeList[T any] []atomic.Pointer[T]

func (l freeList[T]) get() *T {
	for i := range l {
		if x := l[i].Swap(nil); x != nil {
			return x
		}
	}
	return new(T)
}

func (l freeList[T]) put(x *T) {
	for i := range l {
		if l[i].CompareAndSwap(nil, x) {
			return
		}
	}
}

// grow extends w with zeroed elements up to length n, reusing capacity.
func grow[T uint64 | int32](w []T, n int) []T {
	return append(w, make([]T, n-len(w))...)
}

// keySet fills buf with the bitset of the values at column col of s's
// live rows, sized to the largest value, and returns it; ok is false
// when a value lies outside [0, limit).
func keySet(s *execNode, col, limit int, buf *keyBuf) (set []uint64, ok bool) {
	set = buf.w[:0]
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			v := s.rows[w<<6|b][col]
			if uint(v) >= uint(limit) {
				buf.w = set
				return nil, false
			}
			if i := v >> 6; i >= len(set) {
				set = grow(set, i+1)
			}
			set[v>>6] |= 1 << uint(v&63)
		}
	}
	buf.w = set
	return set, true
}

// keySums fills buf with, per value at column col of s's live rows,
// the sum of cnt over the rows holding it, and returns it. ovf marks
// (as a bitset over the keys up to the largest it holds, nil when none
// did) the keys whose sum overflows uint64 — an overflow only if a live
// target row reads one, exactly as on the index path. ok is false when
// a value lies outside [0, limit).
func keySums(s *execNode, col, limit int, cnt []uint64, buf *keyBuf) (sums, ovf []uint64, ok bool) {
	sums = buf.w[:0]
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			id := w<<6 | b
			v := s.rows[id][col]
			if uint(v) >= uint(limit) {
				buf.w = sums
				return nil, nil, false
			}
			if v >= len(sums) {
				sums = grow(sums, v+1)
			}
			if sums[v], ok = addU64(sums[v], cnt[id]); !ok {
				ovf = grow(ovf, max(len(ovf), v>>6+1))
				ovf[v>>6] |= 1 << uint(v&63)
			}
		}
	}
	buf.w = sums
	return sums, ovf, true
}

// keyGroups is the summary of a semijoin key of two or more columns:
// the source's live rows grouped by their first key column, group v
// holding rows [off[v], off[v+1]) of rest, each row the values of the
// other key columns. A two-column probe scans a group of at most
// groupScan rows and binary-searches a larger one, which is sorted; a
// wider key's groups are all sorted and binary-searched.
type keyGroups struct {
	off  []int32
	rest []int
}

// groupScan is the largest group a two-column probe scans; a hub key's
// group of more rows is sorted and binary-searched, so a probe stays
// O(log d).
const groupScan = 16

// groupKeys fills buf with the keyGroups of s's live rows on the key
// columns cols and returns it; ok is false when a first-column value
// lies outside [0, limit).
func groupKeys(s *execNode, cols []int, limit int, buf *keyBuf) (g keyGroups, ok bool) {
	// Count group v into off[v+2]: after the prefix sums off[v+1] is
	// v's start, and placing v's rows advances it to v's end.
	off, w := buf.off[:0], len(cols)-1
	for wi, word := range s.words {
		for ; word != 0; word &= word - 1 {
			v := s.rows[wi<<6|bits.TrailingZeros64(word)][cols[0]]
			if uint(v) >= uint(limit) {
				return g, false
			}
			if v+2 >= len(off) {
				off = grow(off, v+3)
			}
			off[v+2]++
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	g.rest = slices.Grow(buf.rest[:0], s.live*w)[:s.live*w]
	for wi, word := range s.words {
		for ; word != 0; word &= word - 1 {
			row := s.rows[wi<<6|bits.TrailingZeros64(word)]
			at := int(off[row[cols[0]]+1]) * w
			off[row[cols[0]]+1]++
			for k, c := range cols[1:] {
				g.rest[at+k] = row[c]
			}
		}
	}
	var rows [][]int // a wider key's rows: sorted group by group, then copied back
	if w > 1 {
		rows = cutRows[[]int](slices.Clone(g.rest), s.live, w)
	}
	for v := 0; v+1 < len(off); v++ {
		if lo, hi := off[v], off[v+1]; w > 1 {
			slices.SortFunc(rows[lo:hi], slices.Compare)
		} else if hi-lo > groupScan {
			slices.Sort(g.rest[lo:hi])
		}
	}
	for i, row := range rows {
		copy(g.rest[i*w:], row)
	}
	g.off, buf.off, buf.rest = off, off, g.rest
	return g, true
}

// has reports whether some row of group row[cols[0]] holds row's values
// at the other key columns cols[1:].
func (g *keyGroups) has(row, cols []int) bool {
	v, w := row[cols[0]], len(cols)-1
	if v < 0 || v+1 >= len(g.off) {
		return false
	}
	lo, hi := int(g.off[v]), int(g.off[v+1])
	if w == 1 { // the common two-column key, without the comparator
		x, grp := row[cols[1]], g.rest[lo:hi]
		if len(grp) > groupScan {
			_, ok := slices.BinarySearch(grp, x)
			return ok
		}
		return slices.Contains(grp, x)
	}
	at := func(i int) int { // compares group row i with row's values at cols[1:]
		return slices.CompareFunc(g.rest[i*w:(i+1)*w], cols[1:], func(x, c int) int { return cmp.Compare(x, row[c]) })
	}
	i := lo + sort.Search(hi-lo, func(i int) bool { return at(lo+i) >= 0 })
	return i < hi && at(i) == 0
}
