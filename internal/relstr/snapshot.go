package relstr

// Database snapshots: immutable, shareable versions of a Structure
// that own the hash indexes built over their relations. A Snapshot is
// the data-side mirror of the query side's prepare-once split:
// registering a database freezes it once, and every evaluation of
// every prepared query against it probes the same lazily-built,
// bounded, concurrency-safe cache of per-(relation, pattern,
// key-columns) indexes instead of re-indexing the data per call. A
// one-off evaluation of a plain structure goes through the same type:
// Borrow wraps the structure without copying it for the call's
// lifetime.
//
// Versions (Update with a Delta) cost the delta, not the relations it
// touches. Row ids are stable across versions: a version shares its
// parent's append-only row storage, an insert appends a row, and a
// delete clears the row's bit in a copy-on-write liveness bitmap (a
// tombstone). Remove keeps a TupleSet's order and Add appends, so the
// live rows in id order are exactly the rows of a from-scratch
// structure holding the same facts, and a version evaluates like one.
// The identity view is the relation's rows; other pattern views of a
// touched relation rebuild lazily. Every cached index is one immutable
// base plus at most one overlay over the rows appended since the base
// was built: a version takes its parent's indexes by reference and
// extends them on first use. Once the rows appended since the last
// compaction, or the dead rows, pass 1/compactShare of the relation,
// Update compacts it: the live rows are copied in order and the
// indexes rebuild lazily. No version points at its parent, so chains
// of versions pin no memory.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// snapVersions hands out process-unique snapshot versions, so a fork
// chain (and independent snapshots) can always be told apart.
var snapVersions atomic.Uint64

// defaultIndexCap bounds the number of indexes cached per relation
// (across all of its views). Beyond it, Index still returns a working
// index but builds it per call instead of caching — the cache stays
// bounded, correctness is unaffected.
const defaultIndexCap = 32

// compactShare sets when Update compacts a relation: once the rows
// appended since its last compaction, or its dead rows, exceed
// 1/compactShare of its rows. It bounds every index overlay and the
// dead rows a reader skips to that share, and amortises the rebuild
// over as many writes.
const compactShare = 16

// Snapshot is an immutable view of a relational database with a
// persistent index cache. Safe for concurrent use by any number of
// readers; there are no mutating operations (Update returns a new
// Snapshot).
type Snapshot struct {
	version uint64
	rels    map[string]*snapRel
	extra   map[int]bool // elements registered outside any tuple; never mutated
}

// snapRel is one version of one relation: its rows as the identity
// view, plus the lazily-built pattern views and the index cache
// counters. A snapRel is shared between a snapshot and every
// descendant forked by Update that did not touch the relation, which
// keeps its views and indexes warm across updates elsewhere.
type snapRel struct {
	arity int
	all   []int // 0..arity-1: the key columns of the membership index
	id    *View // the identity view: every row id of this version
	// set is the frozen tuple set the rows came from, whose bucket
	// table indexes them on all columns (hashTuple is HashCols over
	// every column); nil in versions made by Update.
	set *TupleSet
	// borrowed: the rows and set belong to a caller's structure (see
	// Borrow), which may change once the borrowing snapshot is done
	// with, so the first Update compacts into rows of its own.
	borrowed bool
	base     int // rows at the last compaction: overlays cover the rows past it
	dead     int // rows whose liveness bit is clear
	// tail is the length the shared row array has been extended to:
	// the version whose rows end there may append in place, any other
	// copies. nil: the array is not shared for appends.
	tail *atomic.Int64

	mu      sync.RWMutex
	views   map[string]*View // non-identity patterns
	nIdx    int              // indexes currently cached across views (bounded by indexCap)
	builds  atomic.Uint64
	hits    atomic.Uint64
	nViews  atomic.Int64
	nCached atomic.Int64
}

// newSnapRel returns a relation version over rows, with live as its
// liveness bitmap (nil: every row alive) and n live rows.
func newSnapRel(arity int, rows [][]int, live []uint64, n int) *snapRel {
	r := &snapRel{arity: arity, all: make([]int, arity)}
	for i := range r.all {
		r.all[i] = i
	}
	r.id = &View{owner: r, rows: rows, live: live, n: n}
	r.nViews.Store(1)
	return r
}

// View is a materialised atom view of one snapshot relation: the rows
// matching a repetition pattern, projected onto the pattern's distinct
// columns. The identity pattern's view is the relation itself: its row
// ids are stable across versions and a deleted row stays in place with
// its liveness bit clear. Views own the column indexes the evaluation
// runtime probes.
type View struct {
	owner   *snapRel
	rows    [][]int
	live    []uint64 // bit id set ⇔ row id alive; nil when every row is
	n       int      // live rows
	mu      sync.RWMutex
	indexes map[string]*Index
}

// Index is a bucket-chained hash index over the rows of a View, keyed
// on the values at Cols: one base table over the rows it was built on
// and at most one overlay over the rows appended since. It is
// immutable once built; probes walk the chains with First/Next, which
// return dead rows too, so callers overlay their own row filters (the
// view's liveness, or the evaluation runtime's per-call bitmaps).
type Index struct {
	rows [][]int
	cols []int
	base table // rows [0, len(base.next))
	ovl  table // rows [ovl.lo, len(rows)); head nil when there are none
}

// table is one bucket-chained hash table over the row ids
// [lo, lo+len(next)).
type table struct {
	head []int32 // bucket → first row id +1 (0 = empty)
	next []int32 // row id − lo → next row id +1 in the same bucket
	mask uint64
	lo   int32
}

// NewSnapshot freezes s into an immutable snapshot. The structure is
// deep-copied, so later mutations of s do not leak into the snapshot.
func NewSnapshot(s *Structure) *Snapshot {
	return freeze(s.Clone(), false)
}

// Borrow wraps s as a snapshot without copying it: views over the
// identity pattern share s's tuples, and the snapshot's caches live as
// long as the snapshot. s must not be mutated while the snapshot (or
// any view or index obtained from it) is in use — Borrow is for
// evaluating a caller's structure in place, NewSnapshot for keeping a
// version. A relation an Update of the snapshot touches is copied into
// the new version.
func Borrow(s *Structure) *Snapshot { return freeze(s, true) }

// freeze wraps a structure nobody mutates while the snapshot lives. It
// copies no rows: each relation's identity view reads its tuple set's
// rows, and the set's bucket table serves as its membership index.
// borrowed marks a caller's structure (Borrow).
func freeze(src *Structure, borrowed bool) *Snapshot {
	sn := &Snapshot{
		version: snapVersions.Add(1),
		rels:    make(map[string]*snapRel, len(src.rels)),
		extra:   src.extra,
	}
	for name, r := range src.rels {
		rows := tupleRows(r.set.Rows())
		sr := newSnapRel(r.arity, rows, nil, len(rows))
		sr.set, sr.base, sr.borrowed = &r.set, len(rows), borrowed
		sn.rels[name] = sr
	}
	return sn
}

// tupleRows reinterprets tuples as rows without copying: Tuple's
// underlying type is []int, so the two slice types share one layout.
// The capacity is cut to the length, so no append ever writes into the
// tuple set's spare capacity.
func tupleRows(ts []Tuple) [][]int {
	if len(ts) == 0 {
		return nil
	}
	return unsafe.Slice((*[]int)(unsafe.Pointer(unsafe.SliceData(ts))), len(ts))
}

// Version returns the snapshot's process-unique version number.
// Versions increase monotonically across NewSnapshot and Update.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Relations returns the declared relation symbols in sorted order.
func (sn *Snapshot) Relations() []string {
	names := make([]string, 0, len(sn.rels))
	for n := range sn.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Arity returns the arity of relation name, or 0 if undeclared.
func (sn *Snapshot) Arity(name string) int {
	if r, ok := sn.rels[name]; ok {
		return r.arity
	}
	return 0
}

// NumFacts returns the total number of tuples across all relations.
func (sn *Snapshot) NumFacts() int {
	n := 0
	for _, r := range sn.rels {
		n += r.id.n
	}
	return n
}

// Size returns Σ arity·(#tuples), the standard size measure.
func (sn *Snapshot) Size() int {
	n := 0
	for _, r := range sn.rels {
		n += r.arity * r.id.n
	}
	return n
}

// Has reports whether the fact name(elems...) is present: one probe of
// the relation's all-columns index.
func (sn *Snapshot) Has(name string, elems ...int) bool {
	r, ok := sn.rels[name]
	return ok && r.arity == len(elems) && r.find(elems, r.id.live) >= 0
}

// Contents returns a mutable deep copy of the snapshot's facts: each
// relation's live rows in id order, which is the order a structure
// built by replaying the same changes keeps.
func (sn *Snapshot) Contents() *Structure {
	s := New()
	for name, r := range sn.rels {
		s.Declare(name, r.arity)
		v := r.id
		for id, row := range v.rows {
			if alive(v.live, id) {
				s.Add(name, row...)
			}
		}
	}
	for e := range sn.extra {
		s.AddElement(e)
	}
	return s
}

// SnapshotStats aggregates the snapshot's index-cache counters.
// Relations shared with other snapshots (COW forks) accumulate their
// activity too — the cache, like the counters, is genuinely shared.
type SnapshotStats struct {
	Relations     int
	Facts         int
	Views         int    // atom views: every relation's identity view plus the pattern views built
	IndexesCached int    // indexes currently held by the cache
	IndexBuilds   uint64 // indexes built (cached or transient beyond the bound)
	IndexHits     uint64 // probes answered by an already-built index, extended or not
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
// for all i — selects every row unchanged and returns the relation's
// own rows, dead ones included); any other pattern's rows are the
// matching live tuples projected onto the distinct positions,
// deduplicated. The view is built once per (relation, pattern) and
// cached for the snapshot's lifetime.
func (sn *Snapshot) View(name string, pattern []int) *View {
	r, ok := sn.rels[name]
	if !ok || r.arity != len(pattern) {
		return emptyView
	}
	if slices.Equal(pattern, r.all) {
		return r.id
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
	rows := materialise(r.id, pattern)
	v = &View{owner: r, rows: rows, n: len(rows)}
	if r.views == nil {
		r.views = map[string]*View{}
	}
	r.views[string(key)] = v
	r.nViews.Add(1)
	return v
}

// materialise projects the live rows of v matching a non-identity
// pattern onto its distinct positions, deduplicated.
func materialise(v *View, pattern []int) [][]int {
	var dist []int
	for i, p := range pattern {
		if p == i {
			dist = append(dist, i)
		}
	}
	out := make([][]int, 0, v.n)
	var seen TupleSet
rows:
	for id, t := range v.rows {
		if !alive(v.live, id) {
			continue
		}
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
// maintenance's per-delta restrictions). Every row is live. rows must
// not be modified while the view is in use.
func NewView(rows [][]int) *View { return &View{owner: &snapRel{}, rows: rows, n: len(rows)} }

// Rows returns the rows of every row id of the view, dead ones
// included (see Live). The slice and its rows are owned by the
// snapshot and must not be modified.
func (v *View) Rows() [][]int { return v.rows }

// Len returns the number of live rows in the view.
func (v *View) Len() int { return v.n }

// Live returns the view's liveness bitmap — bit id set ⇔ row id alive,
// (len(Rows())+63)/64 words — or nil when every row is alive. It is
// shared and must not be modified.
func (v *View) Live() []uint64 { return v.live }

// alive reports whether row id is alive under the liveness bitmap live
// (nil: every row is).
func alive(live []uint64, id int) bool {
	return live == nil || live[id>>6]&(1<<(uint(id)&63)) != 0
}

// Index returns the hash index of the view's rows keyed on cols,
// building it on first use; an index carried from the parent version
// is extended over the rows appended since and counts as a hit. built
// reports whether this call did the build (callers account index-build
// work exactly once). Beyond the per-relation cache bound the index is
// built transiently — returned but not cached — so built stays true on
// every call.
func (v *View) Index(cols []int) (ix *Index, built bool) {
	if v.owner == nil { // the empty view
		return buildIndex(v.rows, cols), true
	}
	var buf [16]byte
	key := appendKey(buf[:0], cols)
	if ix = v.cached(key); ix != nil {
		return ix, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	// A carried index is in the map from the view's creation on, so
	// cached has already extended it: anything found now is current.
	if ix = v.indexes[string(key)]; ix != nil {
		v.owner.hits.Add(1)
		return ix, false
	}
	ix, built = v.newIndex(cols)
	if built {
		v.owner.builds.Add(1)
	} else {
		v.owner.hits.Add(1)
	}
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
	return ix, built
}

// newIndex returns a fresh index of the view's rows keyed on cols. The
// all-columns index of a frozen relation's identity view is the tuple
// set's own bucket table, which costs no build.
func (v *View) newIndex(cols []int) (*Index, bool) {
	if r := v.owner; v == r.id && r.set != nil && r.set.Len() > 0 && slices.Equal(cols, r.all) {
		return &Index{rows: v.rows, cols: r.all, base: table{head: r.set.head, next: r.set.next, mask: r.set.mask}}, false
	}
	return buildIndex(v.rows, cols), true
}

// Cached returns the cached index of the view's rows keyed on cols,
// extended over the rows appended since it was built, or nil when the
// view holds none; it never builds. A returned index counts as a cache
// hit.
func (v *View) Cached(cols []int) *Index {
	if v.owner == nil {
		return nil
	}
	var buf [16]byte
	return v.cached(appendKey(buf[:0], cols))
}

// cached returns the index cached under key, first extending one
// carried from the parent version over the rows appended since, or
// nil.
func (v *View) cached(key []byte) *Index {
	v.mu.RLock()
	ix := v.indexes[string(key)]
	v.mu.RUnlock()
	if ix == nil {
		return nil
	}
	if len(ix.rows) < len(v.rows) {
		v.mu.Lock()
		if ix = v.indexes[string(key)]; len(ix.rows) < len(v.rows) {
			ix = &Index{rows: v.rows, cols: ix.cols, base: ix.base, ovl: newTable(v.rows, ix.cols, len(ix.base.next))}
			v.indexes[string(key)] = ix
		}
		v.mu.Unlock()
	}
	v.owner.hits.Add(1)
	return ix
}

// buildIndex constructs a one-table index over rows keyed on cols.
func buildIndex(rows [][]int, cols []int) *Index {
	cols = append([]int{}, cols...)
	return &Index{rows: rows, cols: cols, base: newTable(rows, cols, 0)}
}

// newTable chains the rows from lo on into a table keyed on cols.
func newTable(rows [][]int, cols []int, lo int) table {
	n := 8
	for n < 2*(len(rows)-lo) {
		n <<= 1
	}
	t := table{head: make([]int32, n), next: make([]int32, len(rows)-lo), mask: uint64(n - 1), lo: int32(lo)}
	for i := lo; i < len(rows); i++ {
		b := HashCols(rows[i], cols) & t.mask
		t.next[i-lo] = t.head[b]
		t.head[b] = int32(i + 1)
	}
	return t
}

// First returns the first indexed row id whose key columns equal
// probe's probeCols values, or -1. probeCols must align with the cols
// the index was built on. A walk returns the matching rows in
// descending id order, overlay before base — the order of one table
// built over every row.
func (ix *Index) First(probe []int, probeCols []int) int32 {
	h := HashCols(probe, probeCols)
	if o := &ix.ovl; o.head != nil {
		if id := ix.walk(o, o.head[h&o.mask], probe, probeCols); id >= 0 {
			return id
		}
	}
	return ix.walk(&ix.base, ix.base.head[h&ix.base.mask], probe, probeCols)
}

// Next continues a First walk from row id, returning the next matching
// row id or -1.
func (ix *Index) Next(id int32, probe []int, probeCols []int) int32 {
	if o := &ix.ovl; o.head != nil && id >= o.lo {
		if nid := ix.walk(o, o.next[id-o.lo], probe, probeCols); nid >= 0 {
			return nid
		}
		return ix.walk(&ix.base, ix.base.head[HashCols(probe, probeCols)&ix.base.mask], probe, probeCols)
	}
	return ix.walk(&ix.base, ix.base.next[id], probe, probeCols)
}

// walk follows t's chain from link (a row id +1, 0 = end) to the first
// row agreeing with probe on the aligned key columns.
func (ix *Index) walk(t *table, link int32, probe []int, probeCols []int) int32 {
chain:
	for ; link != 0; link = t.next[link-1-t.lo] {
		r := ix.rows[link-1]
		for k, c := range ix.cols {
			if r[c] != probe[probeCols[k]] {
				continue chain
			}
		}
		return link - 1
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

// --- versions ------------------------------------------------------------

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

// Update forks a new snapshot with d applied, in time proportional to
// the delta. Untouched relations — rows, views and warm indexes — are
// shared with sn. A touched relation's new version shares sn's rows:
// deletions clear liveness bits, insertions append, and the version
// takes sn's indexes by reference and extends them over the appended
// rows on first use. Past the compaction share (see compactShare) the
// relation is compacted instead and its indexes rebuild lazily. sn
// itself is unchanged (snapshots are immutable). Deletions apply
// before insertions; inserting into an unknown relation declares it
// with the tuple's arity. Arity mismatches against declared relations
// are errors.
func (sn *Snapshot) Update(d *Delta) (*Snapshot, error) {
	if d == nil || d.Empty() {
		return sn, nil
	}
	// Validate before building anything.
	for name, ts := range d.ins {
		if name == "" {
			return nil, fmt.Errorf("relstr: delta inserts into a relation with an empty name")
		}
		want := sn.Arity(name)
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
		if want := sn.Arity(name); want != 0 {
			for _, t := range ts {
				if len(t) != want {
					return nil, fmt.Errorf("relstr: delta deletes a tuple of arity %d from %q (arity %d)", len(t), name, want)
				}
			}
		}
	}

	next := &Snapshot{
		version: snapVersions.Add(1),
		rels:    maps.Clone(sn.rels),
		extra:   sn.extra,
	}
	for _, name := range d.Touched() {
		r := sn.rels[name]
		if r == nil {
			ins := d.ins[name]
			if len(ins) == 0 {
				continue // delete-only delta on an unknown relation: nothing to do
			}
			r = newSnapRel(len(ins[0]), nil, nil, 0)
		}
		next.rels[name] = r.apply(d.del[name], d.ins[name])
	}
	return next, nil
}

// apply returns the next version of r: dels removed, then ins added.
// Deleted rows keep their ids with their liveness bit cleared; new
// rows append.
func (r *snapRel) apply(dels, ins []Tuple) *snapRel {
	v := r.id
	n := len(v.rows)
	live, dead := v.live, r.dead
	owned := false // live is the new version's own copy
	for _, t := range dels {
		id := r.find(t, live)
		if id < 0 {
			continue
		}
		if !owned {
			live, owned = cloneLive(live, n, n+len(ins)), true
		}
		live[id>>6] &^= 1 << (uint(id) & 63)
		dead++
	}
	var add [][]int
	var fresh TupleSet
	for _, t := range ins {
		if r.find(t, live) < 0 && fresh.Add(t) { // delta tuples were cloned at Insert time
			add = append(add, t)
		}
	}
	m := n + len(add)
	if live != nil {
		if !owned && len(add) > 0 {
			live = cloneLive(live, n, m)
		}
		live = live[:(m+63)/64]
		for id := n; id < m; id++ {
			live[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	nLive := v.n - (dead - r.dead) + len(add)

	if r.borrowed || (m-r.base)*compactShare > m || dead*compactShare > m {
		rows := make([][]int, 0, nLive+nLive/compactShare+1)
		for id, row := range v.rows {
			if alive(live, id) {
				rows = append(rows, row)
			}
		}
		rows = append(rows, add...)
		nr := newSnapRel(r.arity, rows, nil, len(rows))
		nr.base, nr.tail = len(rows), new(atomic.Int64)
		nr.tail.Store(int64(len(rows)))
		return nr
	}

	rows, tail := v.rows, r.tail
	if len(add) > 0 {
		if tail != nil && m <= cap(rows) && tail.CompareAndSwap(int64(n), int64(m)) {
			rows = append(rows, add...) // the first fork to append takes the tail
		} else {
			rows, tail = append(rows[:n:n], add...), new(atomic.Int64)
			tail.Store(int64(m))
		}
	}
	nr := newSnapRel(r.arity, rows, live, nLive)
	nr.base, nr.dead, nr.tail = r.base, dead, tail
	v.mu.RLock()
	nr.id.indexes = maps.Clone(v.indexes)
	v.mu.RUnlock()
	nr.nIdx = len(nr.id.indexes)
	nr.nCached.Store(int64(nr.nIdx))
	return nr
}

// find returns the id of a row of r equal to t that is alive under
// live (nil: every row), or -1: one probe of the identity view's
// all-columns index.
func (r *snapRel) find(t []int, live []uint64) int32 {
	if len(r.id.rows) == 0 {
		return -1
	}
	ix, _ := r.id.Index(r.all)
	for id := ix.First(t, r.all); id >= 0; id = ix.Next(id, t, r.all) {
		if alive(live, int(id)) {
			return id
		}
	}
	return -1
}

// cloneLive returns a fresh liveness bitmap sized for total rows:
// a copy of live, or the first n bits set when live is nil.
func cloneLive(live []uint64, n, total int) []uint64 {
	out := make([]uint64, (total+63)/64)
	if live != nil {
		copy(out, live)
		return out
	}
	for w := 0; w < n/64; w++ {
		out[w] = ^uint64(0)
	}
	if n%64 != 0 {
		out[n/64] = 1<<uint(n%64) - 1
	}
	return out
}
