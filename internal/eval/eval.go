// Package eval implements CQ evaluation with the combined
// complexities the paper contrasts:
//
//   - Naive: backtracking join, |D|^O(|Q|) combined complexity — the
//     generic engine for arbitrary CQs, kept as the independent oracle
//     the plans are tested against; no plan path runs it.
//   - Yannakakis: the classical semijoin algorithm for acyclic CQs,
//     O(|D|·|Q|) per the paper's Section 1 (plus output cost for
//     non-Boolean queries).
//   - Bags: a first-hit search over a tree decomposition of a cyclic
//     CQ, memoised on separator values (bags.go) — the evaluation the
//     TW(k)/HTW(k) approximation classes are chosen for.
//
// A Plan (NewPlan) fixes the strategy once per query — Yannakakis over
// a GYO join tree when the query is acyclic, the bag search otherwise
// — and every evaluation runs through it; Eval and EvalBool are the
// one-shot forms. Enumeration has one kernel, the bag search: cyclic
// plans run it over their decomposition, and acyclic streams and
// incremental re-evaluation run it over the reduced join forest (a join
// tree is a decomposition with one atom per bag), reading live rows
// only.
//
// The Yannakakis pipeline runs on one unified executor (exec.go): all
// column mappings are precomputed in a schedule (schedule.go) that
// Plans build once at prepare time, and the executor replays it
// against the atom views of a relstr.Snapshot (source.go) — a
// registered one whose views and hash indexes persist across calls,
// or a per-call *Structure borrowed without copying (relstr.Borrow).
// Row liveness is a per-node bitmap (backing rows are shared with the
// snapshot and never mutated), probes
// go through hash indexes keyed on integer column prefixes
// (relstr.HashCols — no string keys anywhere on the hot path), and the
// solve phase's derived relations allocate from pooled scratch arenas.
// The executor is morsel-driven parallel: with a worker budget above
// one, semijoin probe loops, solve joins and head projections split
// into fixed-size row chunks fanned out to workers, and the reduction
// passes additionally parallelize across independent sibling subtrees
// — with answers byte-identical to a serial run. The string-keyed
// operators this runtime replaced survive in ref_test.go as
// differential oracles.
package eval

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
)

// Answers is a deduplicated set of answer tuples in deterministic
// (lexicographic) order.
type Answers []relstr.Tuple

// Contains reports whether a includes t. Answers are sorted, so this
// is a binary search on the shared integer tuple order.
func (a Answers) Contains(t relstr.Tuple) bool {
	_, ok := slices.BinarySearchFunc(a, t, relstr.Compare)
	return ok
}

func sortAnswers(ts []relstr.Tuple) Answers {
	slices.SortFunc(ts, relstr.Compare)
	return ts
}

// Naive evaluates q on db by backtracking search over the query
// variables (the generic NP engine).
func Naive(q *cq.Query, db *relstr.Structure) Answers {
	ans, _ := NaiveCtx(nil, q, db)
	return ans
}

// NaiveCtx is Naive under a context: cancellation aborts the
// backtracking search with a cqerr.ErrCanceled-wrapped error. No Plan
// path runs it: it is the oracle the plans are held to.
func NaiveCtx(ctx context.Context, q *cq.Query, db *relstr.Structure) (Answers, error) {
	tb := q.Tableau()
	var out []relstr.Tuple
	_, err := hom.ProjectCtx(ctx, tb.S, db, nil, tb.Dist, func(vals []int) bool {
		out = append(out, relstr.Tuple(vals).Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return sortAnswers(out), nil
}

// NaiveBool evaluates a Boolean query (or reports whether q has any
// answer).
func NaiveBool(q *cq.Query, db *relstr.Structure) bool {
	ok, _ := NaiveBoolCtx(nil, q, db)
	return ok
}

// NaiveBoolCtx is NaiveBool under a context. A found answer wins over
// a late cancellation: the latch stops the search, not the result.
func NaiveBoolCtx(ctx context.Context, q *cq.Query, db *relstr.Structure) (bool, error) {
	tb := q.Tableau()
	found := false
	_, err := hom.ProjectCtx(ctx, tb.S, db, nil, tb.Dist, func([]int) bool {
		found = true
		return false
	})
	if err != nil && !found {
		return false, err
	}
	return found, nil
}

// Eval evaluates q on db through a fresh Plan: Yannakakis when q is
// acyclic, otherwise the bag search.
func Eval(q *cq.Query, db *relstr.Structure) Answers {
	ans, _ := NewPlan(q).Eval(nil, db)
	return ans
}

// EvalBool is the Boolean variant of Eval.
func EvalBool(q *cq.Query, db *relstr.Structure) bool {
	ok, _ := NewPlan(q).EvalBool(nil, db)
	return ok
}

// --- shared relation-tree machinery -----------------------------------

// rel is a materialised relation over a fixed variable list.
type rel struct {
	vars []int   // distinct variable (element) ids
	rows [][]int // aligned with vars, deduplicated
}

func indexOf(vars []int, v int) int {
	for i, x := range vars {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("eval: variable %d not in %v", v, vars))
}

// sharedVars returns the variables common to a and b, in a's order.
func sharedVars(a, b []int) []int {
	var out []int
	for _, v := range a {
		if indexOfOrNeg(b, v) != -1 {
			out = append(out, v)
		}
	}
	return out
}

// --- the indexed runtime ----------------------------------------------

// opStats are the per-call index counters a scratch accumulates; Plans
// fold them into their atomic totals when the call finishes.
type opStats struct {
	builds uint64 // hash indexes built over data
	probes uint64 // rows driven through an index probe
}

// scratch is the reusable per-evaluation state of the indexed runtime:
// one bucket table and chain array serving every index built during
// the call (at most one index is live at a time), and an integer arena
// the join outputs allocate rows from. Nothing allocated from a
// scratch escapes the evaluation (answers and reduced databases are
// copied out), so scratches are pooled across calls.
type scratch struct {
	head  []int32
	next  []int32
	buf   []int
	stats opStats
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.stats = opStats{}
	return sc
}

func putScratch(sc *scratch) {
	sc.buf = sc.buf[:0]
	scratchPool.Put(sc)
}

// alloc returns a fresh n-int row from the arena.
func (sc *scratch) alloc(n int) []int {
	if n == 0 {
		return nil
	}
	if cap(sc.buf)-len(sc.buf) < n {
		c := 8192
		if c < n {
			c = n
		}
		sc.buf = make([]int, 0, c)
	}
	off := len(sc.buf)
	sc.buf = sc.buf[:off+n]
	return sc.buf[off : off+n : off+n]
}

// hashIndex is a bucket-chained hash index over the rows of one
// relation, keyed on the values at cols. Buckets hold row ids; probes
// walk the chain comparing key columns as integers.
type hashIndex struct {
	rows [][]int
	cols []int
	head []int32 // bucket → first row id +1 (0 = empty)
	next []int32 // row id → next row id +1 in the same bucket
	mask uint64
}

// tables returns the scratch's bucket and chain arrays sized for n
// rows, buckets cleared: the one pair of hash tables every index,
// projection and key count of the call reuses (at most one is live at
// a time).
func (sc *scratch) tables(n int) (head, next []int32, mask uint64) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if cap(sc.head) < size {
		sc.head = make([]int32, size)
	}
	head = sc.head[:size]
	clear(head)
	if cap(sc.next) < n {
		sc.next = make([]int32, n)
	}
	return head, sc.next[:n], uint64(size - 1)
}

// buildIndex indexes rows on cols using the scratch's tables. The
// index is valid until the scratch builds the next one.
func (sc *scratch) buildIndex(rows [][]int, cols []int) hashIndex {
	head, next, mask := sc.tables(len(rows))
	for i, row := range rows {
		b := relstr.HashCols(row, cols) & mask
		next[i] = head[b]
		head[b] = int32(i + 1)
	}
	sc.stats.builds++
	return hashIndex{rows: rows, cols: cols, head: head, next: next, mask: mask}
}

// match reports whether row id of the index agrees with probe on the
// aligned key columns.
func (ix *hashIndex) match(id int32, probe []int, probeCols []int) bool {
	r := ix.rows[id]
	for k, c := range ix.cols {
		if r[c] != probe[probeCols[k]] {
			return false
		}
	}
	return true
}

// lookup returns the first indexed row id matching probe at probeCols,
// or -1.
func (ix *hashIndex) lookup(probe []int, probeCols []int) int32 {
	for id := ix.head[relstr.HashCols(probe, probeCols)&ix.mask]; id != 0; id = ix.next[id-1] {
		if ix.match(id-1, probe, probeCols) {
			return id - 1
		}
	}
	return -1
}

// nextMatch continues a lookup from row id.
func (ix *hashIndex) nextMatch(id int32, probe []int, probeCols []int) int32 {
	for nid := ix.next[id]; nid != 0; nid = ix.next[nid-1] {
		if ix.match(nid-1, probe, probeCols) {
			return nid - 1
		}
	}
	return -1
}

// join computes the natural join of l and r under the precomputed step
// mapping: r is indexed on st.rCols, every l row probes with st.lCols,
// and matches append r's st.rExtra columns to the l row. Join inputs
// are duplicate-free sets over their variables, so the output is too —
// no dedup pass needed.
func (sc *scratch) join(l, r rel, st jStep) rel {
	out := rel{vars: st.outVars}
	if len(l.rows) == 0 || len(r.rows) == 0 {
		return out
	}
	if len(st.rCols) == 0 {
		// Keyless join (cross product across components): every pair
		// matches, so a hash index would be a single bucket — iterate
		// directly instead of building one.
		w := len(l.vars) + len(st.rExtra)
		for _, lrow := range l.rows {
			for _, rrow := range r.rows {
				vals := sc.alloc(w)
				copy(vals, lrow)
				for k, c := range st.rExtra {
					vals[len(lrow)+k] = rrow[c]
				}
				out.rows = append(out.rows, vals)
			}
		}
		return out
	}
	ix := sc.buildIndex(r.rows, st.rCols)
	sc.stats.probes += uint64(len(l.rows))
	w := len(l.vars) + len(st.rExtra)
	for _, lrow := range l.rows {
		for id := ix.lookup(lrow, st.lCols); id >= 0; id = ix.nextMatch(id, lrow, st.lCols) {
			rrow := ix.rows[id]
			vals := sc.alloc(w)
			copy(vals, lrow)
			for k, c := range st.rExtra {
				vals[len(lrow)+k] = rrow[c]
			}
			out.rows = append(out.rows, vals)
		}
	}
	return out
}

// project returns r restricted to cols (in cols order) with outVars as
// the variable list, deduplicated through an incremental hash table —
// the projection loses columns, so duplicates do arise here.
func (sc *scratch) project(r rel, cols []int, outVars []int) rel {
	out := rel{vars: outVars}
	head, next, mask := sc.tables(len(r.rows))
	sc.stats.builds++
	sc.stats.probes += uint64(len(r.rows))
rows:
	for _, row := range r.rows {
		b := relstr.HashCols(row, cols) & mask
		for id := head[b]; id != 0; id = next[id-1] {
			prev := out.rows[id-1]
			dup := true
			for k, c := range cols {
				if prev[k] != row[c] {
					dup = false
					break
				}
			}
			if dup {
				continue rows
			}
		}
		vals := sc.alloc(len(cols))
		for k, c := range cols {
			vals[k] = row[c]
		}
		out.rows = append(out.rows, vals)
		id := int32(len(out.rows))
		next[id-1] = head[b]
		head[b] = id
	}
	return out
}

// countKeys counts the distinct projections of rows onto cols (cols
// may repeat a column) through the scratch's hash tables: the chains
// link the first row seen with each key, so nothing is copied out and
// no key is materialised.
func (sc *scratch) countKeys(rows [][]int, cols []int) uint64 {
	head, next, mask := sc.tables(len(rows))
	var n uint64
rows:
	for i, row := range rows {
		b := relstr.HashCols(row, cols) & mask
		for id := head[b]; id != 0; id = next[id-1] {
			prev := rows[id-1]
			dup := true
			for _, c := range cols {
				if prev[c] != row[c] {
					dup = false
					break
				}
			}
			if dup {
				continue rows
			}
		}
		next[i] = head[b]
		head[b] = int32(i + 1)
		n++
	}
	return n
}
