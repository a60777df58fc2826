package relstr

// Database snapshots: immutable, shareable views of a Structure that
// own the hash indexes built over their relations. A Snapshot is the
// data-side mirror of the query side's prepare-once split: registering
// a database freezes it once, and every evaluation of every prepared
// query against it probes the same lazily-built, bounded,
// concurrency-safe cache of per-(relation, pattern, key-columns)
// indexes instead of re-indexing the data per call. Copy-on-write
// updates (Update with a Delta) fork a new version that keeps sharing
// the rows, views and indexes of every untouched relation. A one-off
// evaluation of a plain structure goes through the same type: Borrow
// wraps the structure without copying it for the call's lifetime.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// snapVersions hands out process-unique snapshot versions, so a fork
// chain (and independent snapshots) can always be told apart.
var snapVersions atomic.Uint64

// defaultIndexCap bounds the number of indexes cached per relation
// (across all of its views). Beyond it, Index still returns a working
// index but builds it per call instead of caching — the cache stays
// bounded, correctness is unaffected.
const defaultIndexCap = 32

// Snapshot is an immutable view of a relational database with a
// persistent index cache. Safe for concurrent use by any number of
// readers; there are no mutating operations (Update returns a new
// Snapshot).
type Snapshot struct {
	src     *Structure // frozen private clone; never mutated after construction
	version uint64
	rels    map[string]*snapRel
}

// snapRel is one relation of a snapshot: its frozen rows plus the
// lazily-built views and indexes over them. A snapRel is shared
// between a snapshot and every descendant forked by Update that did
// not touch the relation — which is exactly what lets warm indexes
// survive updates elsewhere in the database.
type snapRel struct {
	arity int
	rows  []Tuple

	mu      sync.RWMutex
	views   map[string]*View
	nIdx    int // indexes currently cached across views (bounded by indexCap)
	builds  atomic.Uint64
	hits    atomic.Uint64
	nViews  atomic.Int64
	nCached atomic.Int64
}

// View is a materialised atom view of one snapshot relation: the rows
// matching a repetition pattern, projected onto the pattern's distinct
// columns (the identity pattern is the relation itself, sharing row
// storage). Views own the column indexes the evaluation runtime probes.
type View struct {
	owner   *snapRel
	rows    [][]int
	mu      sync.RWMutex
	indexes map[string]*Index
}

// Index is a bucket-chained hash index over the rows of a View, keyed
// on the values at Cols. It is immutable once built; probes walk the
// chain with First/Next so callers can overlay their own row filters
// (the evaluation runtime's per-call liveness bitmaps).
type Index struct {
	rows [][]int
	cols []int
	head []int32 // bucket → first row id +1 (0 = empty)
	next []int32 // row id → next row id +1 in the same bucket
	mask uint64
}

// NewSnapshot freezes s into an immutable snapshot. The structure is
// deep-copied, so later mutations of s do not leak into the snapshot.
func NewSnapshot(s *Structure) *Snapshot {
	return freeze(s.Clone())
}

// Borrow wraps s as a snapshot without copying it: views over the
// identity pattern share s's tuples, and the snapshot's caches live as
// long as the snapshot. s must not be mutated while the snapshot (or
// any view or index obtained from it) is in use — Borrow is for
// evaluating a caller's structure in place, NewSnapshot for keeping a
// version.
func Borrow(s *Structure) *Snapshot { return freeze(s) }

// freeze wraps a structure nobody mutates while the snapshot lives.
func freeze(src *Structure) *Snapshot {
	sn := &Snapshot{
		src:     src,
		version: snapVersions.Add(1),
		rels:    make(map[string]*snapRel, len(src.rels)),
	}
	for name, r := range src.rels {
		sn.rels[name] = &snapRel{arity: r.arity, rows: r.set.Rows()}
	}
	return sn
}

// Version returns the snapshot's process-unique version number.
// Versions increase monotonically across NewSnapshot and Update.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Structure returns the snapshot's frozen structure. It is shared, not
// copied: callers must treat it as read-only (incremental maintenance
// reads fact membership from it; nothing may mutate it).
func (sn *Snapshot) Structure() *Structure { return sn.src }

// Relations returns the declared relation symbols in sorted order.
func (sn *Snapshot) Relations() []string { return sn.src.Relations() }

// Arity returns the arity of relation name, or 0 if undeclared.
func (sn *Snapshot) Arity(name string) int { return sn.src.Arity(name) }

// NumFacts returns the total number of tuples across all relations.
func (sn *Snapshot) NumFacts() int { return sn.src.NumFacts() }

// Size returns Σ arity·(#tuples), the standard size measure.
func (sn *Snapshot) Size() int { return sn.src.Size() }

// SnapshotStats aggregates the snapshot's index-cache counters.
// Relations shared with other snapshots (COW forks) accumulate their
// activity too — the cache, like the counters, is genuinely shared.
type SnapshotStats struct {
	Relations     int
	Facts         int
	Views         int    // materialised atom views
	IndexesCached int    // indexes currently held by the cache
	IndexBuilds   uint64 // indexes built (cached or transient beyond the bound)
	IndexHits     uint64 // probes answered by an already-built index
}

// Stats returns a snapshot of the index-cache counters.
func (sn *Snapshot) Stats() SnapshotStats {
	st := SnapshotStats{Relations: len(sn.rels), Facts: sn.NumFacts()}
	for _, r := range sn.rels {
		st.Views += int(r.nViews.Load())
		st.IndexesCached += int(r.nCached.Load())
		st.IndexBuilds += r.builds.Load()
		st.IndexHits += r.hits.Load()
	}
	return st
}

// emptyView serves undeclared relations and arity mismatches.
var emptyView = &View{}

// View returns the materialised view of relation name under the given
// repetition pattern. pattern[i] is the first position whose value
// position i must repeat (so the identity pattern — pattern[i] == i
// for all i — selects every row unchanged); the view's rows are the
// matching tuples projected onto the distinct positions, deduplicated.
// The view is built once per (relation, pattern) and cached for the
// snapshot's lifetime.
func (sn *Snapshot) View(name string, pattern []int) *View {
	r, ok := sn.rels[name]
	if !ok || r.arity != len(pattern) {
		return emptyView
	}
	var buf [16]byte
	key := appendKey(buf[:0], pattern)
	r.mu.RLock()
	v := r.views[string(key)]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = r.views[string(key)]; v != nil {
		return v
	}
	v = &View{owner: r, rows: materialise(r.rows, pattern)}
	if r.views == nil {
		r.views = map[string]*View{}
	}
	r.views[string(key)] = v
	r.nViews.Add(1)
	return v
}

// materialise projects the rows matching pattern onto its distinct
// positions. The identity pattern shares tuple storage; non-identity
// patterns filter, project and deduplicate.
func materialise(rows []Tuple, pattern []int) [][]int {
	identity := true
	for i, p := range pattern {
		if p != i {
			identity = false
			break
		}
	}
	out := make([][]int, 0, len(rows))
	if identity {
		for _, t := range rows {
			out = append(out, t)
		}
		return out
	}
	var dist []int
	for i, p := range pattern {
		if p == i {
			dist = append(dist, i)
		}
	}
	var seen TupleSet
rows:
	for _, t := range rows {
		for i, p := range pattern {
			if t[i] != t[p] {
				continue rows
			}
		}
		row := make([]int, len(dist))
		for k, i := range dist {
			row[k] = t[i]
		}
		if seen.Add(row) {
			out = append(out, row)
		}
	}
	return out
}

// NewView wraps rows as a standalone view with its own bounded index
// cache, for row sets that belong to no snapshot relation (incremental
// maintenance's per-delta restrictions). rows must not be modified
// while the view is in use.
func NewView(rows [][]int) *View { return &View{owner: &snapRel{}, rows: rows} }

// Rows returns the view's rows. The slice and its rows are owned by
// the snapshot and must not be modified.
func (v *View) Rows() [][]int { return v.rows }

// Len returns the number of rows in the view.
func (v *View) Len() int { return len(v.rows) }

// Index returns the hash index of the view's rows keyed on cols,
// building it on first use. built reports whether this call did the
// build (callers account index-build work exactly once). Beyond the
// per-relation cache bound the index is built transiently — returned
// but not cached — so built stays true on every call.
func (v *View) Index(cols []int) (ix *Index, built bool) {
	if v.owner == nil { // the empty view
		return buildIndex(v.rows, cols), true
	}
	var buf [16]byte
	key := appendKey(buf[:0], cols)
	v.mu.RLock()
	ix = v.indexes[string(key)]
	v.mu.RUnlock()
	if ix != nil {
		v.owner.hits.Add(1)
		return ix, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ix = v.indexes[string(key)]; ix != nil {
		v.owner.hits.Add(1)
		return ix, false
	}
	ix = buildIndex(v.rows, cols)
	v.owner.builds.Add(1)
	v.owner.mu.Lock()
	admit := v.owner.nIdx < defaultIndexCap
	if admit {
		v.owner.nIdx++
	}
	v.owner.mu.Unlock()
	if admit {
		if v.indexes == nil {
			v.indexes = map[string]*Index{}
		}
		v.indexes[string(key)] = ix
		v.owner.nCached.Add(1)
	}
	return ix, true
}

// Cached returns the cached index of the view's rows keyed on cols, or
// nil when the view holds none; it never builds. A returned index
// counts as a cache hit.
func (v *View) Cached(cols []int) *Index {
	if v.owner == nil {
		return nil
	}
	var buf [16]byte
	key := appendKey(buf[:0], cols)
	v.mu.RLock()
	ix := v.indexes[string(key)]
	v.mu.RUnlock()
	if ix != nil {
		v.owner.hits.Add(1)
	}
	return ix
}

// buildIndex constructs a bucket-chained index over rows keyed on cols.
func buildIndex(rows [][]int, cols []int) *Index {
	n := 8
	for n < 2*len(rows) {
		n <<= 1
	}
	ix := &Index{
		rows: rows,
		cols: append([]int{}, cols...),
		head: make([]int32, n),
		next: make([]int32, len(rows)),
		mask: uint64(n - 1),
	}
	for i, row := range rows {
		b := HashCols(row, cols) & ix.mask
		ix.next[i] = ix.head[b]
		ix.head[b] = int32(i + 1)
	}
	return ix
}

// Rows returns the indexed rows (the view's rows, shared).
func (ix *Index) Rows() [][]int { return ix.rows }

// match reports whether indexed row id agrees with probe on the
// aligned key columns.
func (ix *Index) match(id int32, probe []int, probeCols []int) bool {
	r := ix.rows[id]
	for k, c := range ix.cols {
		if r[c] != probe[probeCols[k]] {
			return false
		}
	}
	return true
}

// First returns the first indexed row id whose key columns equal
// probe's probeCols values, or -1. probeCols must align with the cols
// the index was built on.
func (ix *Index) First(probe []int, probeCols []int) int32 {
	for id := ix.head[HashCols(probe, probeCols)&ix.mask]; id != 0; id = ix.next[id-1] {
		if ix.match(id-1, probe, probeCols) {
			return id - 1
		}
	}
	return -1
}

// Next continues a First walk from row id, returning the next matching
// row id or -1.
func (ix *Index) Next(id int32, probe []int, probeCols []int) int32 {
	for nid := ix.next[id]; nid != 0; nid = ix.next[nid-1] {
		if ix.match(nid-1, probe, probeCols) {
			return nid - 1
		}
	}
	return -1
}

// appendKey appends the map key of a pattern or column list to b: one
// byte per value while every value fits in 0..0x7f, else a 0x80 marker
// followed by each value as a varint. The marker byte never occurs in
// the compact form and varints are prefix-free, so distinct lists get
// distinct keys. Callers pass a stack buffer and convert to string
// only to insert, so a lookup allocates nothing.
func appendKey(b []byte, xs []int) []byte {
	start := len(b)
	for _, x := range xs {
		if x < 0 || x > 0x7f {
			b = append(b[:start], 0x80)
			for _, x := range xs {
				b = binary.AppendVarint(b, int64(x))
			}
			return b
		}
		b = append(b, byte(x))
	}
	return b
}

// --- copy-on-write updates --------------------------------------------

// Delta is a change set for Snapshot.Update: facts to delete and facts
// to insert, per relation. Deletions are applied before insertions.
// The zero value is not usable; construct with NewDelta.
type Delta struct {
	ins map[string][]Tuple
	del map[string][]Tuple
}

// NewDelta returns an empty change set.
func NewDelta() *Delta {
	return &Delta{ins: map[string][]Tuple{}, del: map[string][]Tuple{}}
}

// Insert schedules the fact name(elems...) for insertion. Inserting an
// already-present fact is a no-op at Update time. Returns d for
// chaining.
func (d *Delta) Insert(name string, elems ...int) *Delta {
	d.ins[name] = append(d.ins[name], Tuple(elems).Clone())
	return d
}

// Delete schedules the fact name(elems...) for deletion. Deleting an
// absent fact is a no-op at Update time. Returns d for chaining.
func (d *Delta) Delete(name string, elems ...int) *Delta {
	d.del[name] = append(d.del[name], Tuple(elems).Clone())
	return d
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool { return len(d.ins) == 0 && len(d.del) == 0 }

// Inserts returns the tuples scheduled for insertion into relation
// name, in Insert order. The slice and its tuples are owned by the
// delta and must not be modified.
func (d *Delta) Inserts(name string) []Tuple { return d.ins[name] }

// Deletes returns the tuples scheduled for deletion from relation
// name, in Delete order. The slice and its tuples are owned by the
// delta and must not be modified.
func (d *Delta) Deletes(name string) []Tuple { return d.del[name] }

// NumChanges returns the total number of scheduled insertions and
// deletions (before Update-time no-op elimination).
func (d *Delta) NumChanges() int {
	n := 0
	for _, ts := range d.ins {
		n += len(ts)
	}
	for _, ts := range d.del {
		n += len(ts)
	}
	return n
}

// Touched returns the relations the delta mentions, sorted.
func (d *Delta) Touched() []string {
	set := map[string]bool{}
	for n := range d.ins {
		set[n] = true
	}
	for n := range d.del {
		set[n] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Update forks a new snapshot with d applied. Untouched relations —
// rows, views and warm indexes — are shared with sn, so only the
// changed relations pay re-indexing on the new version. sn itself is
// unchanged (snapshots are immutable). Deletions apply before
// insertions; inserting into an unknown relation declares it with the
// tuple's arity. Arity mismatches against declared relations are
// errors.
func (sn *Snapshot) Update(d *Delta) (*Snapshot, error) {
	if d == nil || d.Empty() {
		return sn, nil
	}
	touched := map[string]bool{}
	for _, n := range d.Touched() {
		touched[n] = true
	}
	// Validate before building anything.
	for name, ts := range d.ins {
		if name == "" {
			return nil, fmt.Errorf("relstr: delta inserts into a relation with an empty name")
		}
		want := sn.src.Arity(name)
		for _, t := range ts {
			if len(t) == 0 {
				return nil, fmt.Errorf("relstr: delta inserts an empty tuple into %q", name)
			}
			if want == 0 {
				want = len(ts[0])
			}
			if len(t) != want {
				return nil, fmt.Errorf("relstr: delta inserts a tuple of arity %d into %q (arity %d)", len(t), name, want)
			}
		}
	}
	for name, ts := range d.del {
		if want := sn.src.Arity(name); want != 0 {
			for _, t := range ts {
				if len(t) != want {
					return nil, fmt.Errorf("relstr: delta deletes a tuple of arity %d from %q (arity %d)", len(t), name, want)
				}
			}
		}
	}

	src := &Structure{rels: make(map[string]*relation, len(sn.src.rels)+len(d.ins)), extra: map[int]bool{}}
	for e := range sn.src.extra {
		src.extra[e] = true
	}
	// Untouched relations share their *relation verbatim: both
	// structures are frozen, so sharing is safe — and it is what keeps
	// their caches warm across versions.
	for name, r := range sn.src.rels {
		if !touched[name] {
			src.rels[name] = r
		}
	}
	next := &Snapshot{
		src:     src,
		version: snapVersions.Add(1),
		rels:    make(map[string]*snapRel, len(sn.rels)+len(d.ins)),
	}
	for name, r := range sn.rels {
		if !touched[name] {
			next.rels[name] = r
		}
	}
	for name := range touched {
		old, declared := sn.src.rels[name]
		nr := &relation{}
		if declared {
			nr.arity = old.arity
			nr.set = old.set.fork() // shares tuple storage with the old version
		} else if ts := d.ins[name]; len(ts) > 0 {
			nr.arity = len(ts[0])
		} else {
			continue // delete-only delta on an unknown relation: nothing to do
		}
		for _, t := range d.del[name] {
			nr.set.Remove(t)
		}
		for _, t := range d.ins[name] {
			nr.set.Add(t) // delta tuples were cloned at Insert time
		}
		src.rels[name] = nr
		next.rels[name] = &snapRel{arity: nr.arity, rows: nr.set.Rows()}
	}
	return next, nil
}
