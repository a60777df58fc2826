package eval

import (
	"slices"
	"sync"

	"cqapprox/internal/relstr"
)

// The storage backend interface of the unified executor. One schedule
// executor (exec.go) serves every backend; what varies between a plain
// per-call *Structure and a registered *Snapshot is only how an atom's
// pattern view is materialised and where the hash indexes over its rows
// come from. Source captures exactly that split: Node resolves an atom
// to its deduplicated view rows plus an Indexer handing out probe
// indexes over them, and Structure exposes a plain-structure rendering
// for the paths that need one (the stream enumerator's backtracking
// phase).

// Indexer hands out hash indexes over one view's rows, keyed on column
// sets. built reports whether the call built the index (callers account
// index-build work exactly once); Cached returns an index the provider
// already holds, nil otherwise, and never builds. Implementations must
// be safe for concurrent use — the parallel executor requests indexes
// from sibling steps concurrently.
type Indexer interface {
	Index(cols []int) (*relstr.Index, bool)
	Cached(cols []int) *relstr.Index
}

// Source is the storage backend of one evaluation. Node is called once
// per forest node while the executor sets up (serially); the returned
// rows are shared with the backend and never mutated — per-call row
// liveness lives in the executor's bitmaps, not in the backend.
type Source interface {
	// Node returns the deduplicated rows realising atom a (assignments
	// of a's distinct variables) and the index provider over them.
	Node(a patom) (rows [][]int, ix Indexer)
	// Structure returns a plain-structure view of the backend's data,
	// read-only.
	Structure() *relstr.Structure
}

// NewSource wraps a plain structure as an evaluation backend: atom
// views are materialised per Source (atoms sharing a pattern signature
// materialise once) and indexes are built per call, memoized per
// (view, columns) so repeated probes of one relation on the same key
// within an evaluation share a single build.
//
// A structure Source is cheap and call-local: make a fresh one per
// evaluation. For evaluate-many workloads, snapshots
// (NewSnapshotSource) persist views and indexes across calls instead.
func NewSource(db *relstr.Structure) Source {
	return &structSource{db: db}
}

// structSource materialises atom views against a plain structure,
// cached per pattern signature for the Source's lifetime (one call).
// Memos are small linear slices, not maps — a query has a handful of
// atoms and key-column sets, and request-sized evaluations are too
// short to amortise map machinery.
type structSource struct {
	db   *relstr.Structure
	memo []*memoNode // Node is called serially during forest setup
}

type memoNode struct {
	sig  string
	rows [][]int
	ix   memoIndexer
}

func (s *structSource) Node(a patom) ([][]int, Indexer) {
	sig := patternSig(a)
	for _, n := range s.memo {
		if n.sig == sig {
			return n.rows, &n.ix
		}
	}
	r := atomRelation(a, s.db)
	n := &memoNode{sig: sig, rows: r.rows}
	n.ix.rows = r.rows
	s.memo = append(s.memo, n)
	return n.rows, &n.ix
}

func (s *structSource) Structure() *relstr.Structure { return s.db }

// memoIndexer builds indexes over a fixed row set on demand, memoized
// per column set. Concurrency-safe: parallel sibling steps may request
// indexes on the same view at once, and exactly one build wins.
type memoIndexer struct {
	rows [][]int
	mu   sync.Mutex
	ixs  []memoIx
}

type memoIx struct {
	cols []int
	ix   *relstr.Index
}

func (m *memoIndexer) Index(cols []int) (*relstr.Index, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.ixs {
		if slices.Equal(e.cols, cols) {
			return e.ix, false
		}
	}
	ix := relstr.NewIndex(m.rows, cols)
	m.ixs = append(m.ixs, memoIx{cols: append([]int{}, cols...), ix: ix})
	return ix, true
}

func (m *memoIndexer) Cached(cols []int) *relstr.Index {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.ixs {
		if slices.Equal(e.cols, cols) {
			return e.ix
		}
	}
	return nil
}

// NewSnapshotSource wraps a frozen snapshot as an evaluation backend:
// atom views and their indexes come from the snapshot's persistent,
// concurrency-safe caches, so a warm evaluation builds nothing — every
// prepared query and every call probing the same snapshot shares them.
func NewSnapshotSource(sn *relstr.Snapshot) Source {
	return snapshotSource{sn: sn}
}

type snapshotSource struct{ sn *relstr.Snapshot }

func (s snapshotSource) Node(a patom) ([][]int, Indexer) {
	v := s.sn.View(a.rel, atomPattern(a.args))
	return v.Rows(), v
}

func (s snapshotSource) Structure() *relstr.Structure { return s.sn.Structure() }

// atomPattern returns the repetition pattern of an atom's argument
// list: pattern[i] is the first position holding the same variable as
// position i (the shape relstr.Snapshot.View keys its views by).
func atomPattern(args []int) []int {
	pat := make([]int, len(args))
	for i, v := range args {
		pat[i] = i
		for j := 0; j < i; j++ {
			if args[j] == v {
				pat[i] = j
				break
			}
		}
	}
	return pat
}
