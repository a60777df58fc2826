package eval

import (
	"math/bits"
	"runtime"
)

// Dense key-summary kernels. The executor's two per-row probe loops —
// the semijoin step and the counting DP — test every live target row
// against the source side. Through a hash index that is one bucket
// chain walk per target row, repeated for every target row sharing a
// key. When the key is one column of small non-negative ints (dense
// element ids, the common case) the step instead summarises the
// source once: a bitset of its live key values for the semijoin, an
// array of per-key count sums for the DP. Each target row then costs
// one array read: O(|S_live|+|T_live|), no index build, no chain walk.
//
// The bitset covers keys in [0, bitLimit): eight bits per row on both
// sides plus a constant, so it costs at most about a byte per row
// against about twelve for a chained index. The DP's sum array spends
// eight bytes per key, so it covers only [0, sumLimit): one key per row
// on both sides plus a constant, at most about eight bytes per row. A
// source key outside the bound (negative, huge, or sparse values) and
// every key of two or more columns fall back to the view index. The
// choice depends only on the data; both kernels kill and count exactly
// the same rows, so answers never depend on it.

// bitLimit is the exclusive bound on the key values a semijoin's
// bitset covers for a step between tLive target and sLive source rows.
func bitLimit(tLive, sLive int) int { return 8*(tLive+sLive) + 4096 }

// sumLimit is the exclusive bound on the key values a DP edge's sum
// array covers for tLive parent and sLive child rows.
func sumLimit(tLive, sLive int) int { return tLive + sLive + 512 }

// keyBuf is a pooled summary buffer. Sibling steps run concurrently,
// so each step draws its own and returns it when its filter is done.
type keyBuf struct{ w []uint64 }

// keyBufs holds the free summary buffers, one slot per core — as many
// as steps run at once under a worker budget that fits the machine;
// a step finding none free allocates one. Unlike a sync.Pool it keeps
// them across GCs: a buffer dropped at a GC was regrown by doubling in
// the next step, so the allocations of a call depended on GC timing.
var keyBufs = make(chan *keyBuf, runtime.GOMAXPROCS(0))

func getKeyBuf() *keyBuf {
	select {
	case b := <-keyBufs:
		return b
	default:
		return new(keyBuf)
	}
}

func putKeyBuf(b *keyBuf) {
	select {
	case keyBufs <- b:
	default: // every slot is taken: leave b to the collector
	}
}

// grow extends w with zeroed words up to length n, reusing capacity.
func grow(w []uint64, n int) []uint64 {
	return append(w, make([]uint64, n-len(w))...)
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
// (as a bitset over the same keys, nil when none did) the keys whose
// sum overflows uint64 — an error only if a live parent row reads one,
// exactly as on the index path. ok is false when a value lies outside
// [0, limit).
func keySums(s *execNode, col, limit int, cnt []uint64, buf *keyBuf) (sums, ovf []uint64, ok bool) {
	sums = buf.w[:0]
	var over []int
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
				over = append(over, v)
			}
		}
	}
	buf.w = sums
	if len(over) > 0 {
		ovf = make([]uint64, (len(sums)+63)/64)
		for _, v := range over {
			ovf[v>>6] |= 1 << uint(v&63)
		}
	}
	return sums, ovf, true
}
