package relstr

import (
	"reflect"
	"testing"
)

func snapFixture() *Structure {
	s := New()
	s.Add("E", 1, 2)
	s.Add("E", 2, 3)
	s.Add("E", 3, 3)
	s.Add("R", 1, 1, 2)
	s.Add("R", 1, 2, 2)
	s.Add("R", 5, 5, 5)
	return s
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func sortedRowSet(rows [][]int) []Tuple {
	out := make([]Tuple, len(rows))
	for i, r := range rows {
		out[i] = Tuple(r).Clone()
	}
	SortTuples(out)
	return out
}

// SortTuples sorts in place by the shared tuple order (test helper).
func SortTuples(ts []Tuple) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && Compare(ts[j], ts[j-1]) < 0; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func TestSnapshotViewsAndIndexes(t *testing.T) {
	s := snapFixture()
	sn := NewSnapshot(s)
	if sn.NumFacts() != 6 || sn.Arity("R") != 3 {
		t.Fatalf("snapshot shape: facts %d, R arity %d", sn.NumFacts(), sn.Arity("R"))
	}
	// Mutating the source after snapshotting must not leak in.
	s.Add("E", 9, 9)
	if sn.NumFacts() != 6 {
		t.Fatal("snapshot saw a post-freeze mutation")
	}

	// Identity view = the relation itself.
	v := sn.View("E", identity(2))
	if v.Len() != 3 {
		t.Fatalf("identity view rows = %d", v.Len())
	}
	// Pattern view R(x,x,y): rows with col0 == col1, projected to (x,y).
	v2 := sn.View("R", []int{0, 0, 2})
	want := []Tuple{{1, 2}, {5, 5}}
	if got := sortedRowSet(v2.Rows()); !reflect.DeepEqual(got, want) {
		t.Fatalf("pattern view rows = %v, want %v", got, want)
	}
	// Cached: same pointer on repeat lookup.
	if sn.View("R", []int{0, 0, 2}) != v2 {
		t.Fatal("view not cached")
	}
	// Unknown relation / arity mismatch: empty.
	if sn.View("X", identity(2)).Len() != 0 || sn.View("E", identity(3)).Len() != 0 {
		t.Fatal("missing/mismatched views not empty")
	}

	// Index probing with First/Next walks all matches.
	ix, built := v.Index([]int{1})
	if !built {
		t.Fatal("first Index call did not build")
	}
	if _, built := v.Index([]int{1}); built {
		t.Fatal("second Index call rebuilt")
	}
	probe := []int{0, 3} // find E rows with second column 3
	var hits int
	for id := ix.First(probe, []int{1}); id >= 0; id = ix.Next(id, probe, []int{1}) {
		if v.Rows()[id][1] != 3 {
			t.Fatalf("probe hit wrong row %v", v.Rows()[id])
		}
		hits++
	}
	if hits != 2 {
		t.Fatalf("probe hits = %d, want 2 (E(2,3), E(3,3))", hits)
	}
	st := sn.Stats()
	if st.Views < 2 || st.IndexesCached != 1 || st.IndexBuilds != 1 || st.IndexHits != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// NewSnapshot deep-copies: facts added to the source after the
	// views exist leave the views' rows as they were, and no row
	// shares storage with the source's tuples.
	before := sortedRowSet(v.Rows())
	s.Add("E", 2, 9)
	s.Add("R", 4, 4, 4)
	if got := sortedRowSet(sn.View("E", identity(2)).Rows()); !reflect.DeepEqual(got, before) {
		t.Fatalf("identity view changed after a source mutation: %v, want %v", got, before)
	}
	if got := sortedRowSet(sn.View("R", []int{0, 0, 2}).Rows()); !reflect.DeepEqual(got, want) {
		t.Fatalf("pattern view changed after a source mutation: %v, want %v", got, want)
	}
	for _, row := range v.Rows() {
		for _, tup := range s.Tuples("E") {
			if &row[0] == &tup[0] {
				t.Fatalf("snapshot row %v shares storage with the source", row)
			}
		}
	}
}

func TestBorrowSharesTuples(t *testing.T) {
	s := snapFixture()
	sn := Borrow(s)
	// The identity view is the structure's own tuples, in order.
	v := sn.View("E", identity(2))
	tuples := s.Tuples("E")
	if v.Len() != len(tuples) {
		t.Fatalf("borrowed identity view rows = %d, want %d", v.Len(), len(tuples))
	}
	for i, row := range v.Rows() {
		if &row[0] != &tuples[i][0] {
			t.Fatalf("borrowed row %d (%v) does not share the structure's tuple storage", i, row)
		}
	}
	// Pattern views and indexes agree with a deep-copied snapshot.
	deep := NewSnapshot(s)
	for _, pat := range [][]int{{0, 0, 2}, {0, 1, 1}, {0, 0, 0}, identity(3)} {
		got := sortedRowSet(sn.View("R", pat).Rows())
		want := sortedRowSet(deep.View("R", pat).Rows())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("borrowed view R%v = %v, deep-copied %v", pat, got, want)
		}
	}
	if ix, built := v.Index([]int{0}); !built || ix.First([]int{2}, []int{0}) < 0 {
		t.Fatal("borrowed view index missing E(2,3)")
	}
}

// A version forked off a borrowed structure owns its rows and indexes:
// the structure may change once the borrowing snapshot is done with,
// and the version must not see it. One delete from 40 rows stays below
// the compaction share, so only the borrow makes the version copy.
func TestBorrowedVersionOwnsItsRows(t *testing.T) {
	s := New()
	for i := 0; i < 40; i++ {
		s.Add("E", i, i+1)
	}
	next, err := Borrow(s).Update(NewDelta().Delete("E", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := next.Contents()
	s.Remove("E", 5, 6)
	s.Add("E", 99, 99)
	if got := next.Contents(); !got.Equal(want) || !next.Has("E", 5, 6) || next.Has("E", 99, 99) {
		t.Fatalf("a version of a borrowed structure changed with it: %v, want %v", got, want)
	}
}

func TestNewViewCachesIndexes(t *testing.T) {
	v := NewView([][]int{{1, 2}, {2, 3}, {2, 4}})
	ix, built := v.Index([]int{0})
	if !built {
		t.Fatal("first Index call did not build")
	}
	if again, built := v.Index([]int{0}); built || again != ix {
		t.Fatal("standalone view did not cache its index")
	}
	if v.Cached([]int{0}) != ix || v.Cached([]int{1}) != nil {
		t.Fatal("Cached disagrees with the index cache")
	}
	var hits int
	for id := ix.First([]int{2}, []int{0}); id >= 0; id = ix.Next(id, []int{2}, []int{0}) {
		hits++
	}
	if hits != 2 {
		t.Fatalf("probe hits = %d, want 2", hits)
	}
}

// Patterns and column lists with values above 0x7f take the verbose
// key form; they must still key distinct views and indexes, cache, and
// not collide with the compact keys of short lists.
func TestSnapshotWideKeys(t *testing.T) {
	const arity = 200
	s := New()
	for k := 0; k < 3; k++ {
		tup := make([]int, arity)
		for i := range tup {
			tup[i] = k + i%3
		}
		s.Add("W", tup...)
	}
	s.Add("E", 1, 2)
	sn := NewSnapshot(s)

	id := identity(arity)
	rep := identity(arity)
	rep[150] = 0 // column 150 repeats column 0
	vID, vRep := sn.View("W", id), sn.View("W", rep)
	if vID == vRep {
		t.Fatal("distinct wide patterns share a view")
	}
	if sn.View("W", identity(arity)) != vID || sn.View("W", append([]int{}, rep...)) != vRep {
		t.Fatal("wide-pattern views not cached")
	}
	if vID.Len() != 3 {
		t.Fatalf("wide identity view rows = %d, want 3", vID.Len())
	}
	// Rows k + i%3 repeat column 0 at column 150 (150%3 == 0), so every
	// row survives, projected onto the 199 distinct columns.
	if vRep.Len() != 3 || len(vRep.Rows()[0]) != arity-1 {
		t.Fatalf("wide pattern view: %d rows of width %d", vRep.Len(), len(vRep.Rows()[0]))
	}

	colSets := [][]int{{150}, {0, 199}, {199, 0}, {0}, {128}, {1, 128}}
	ixs := make([]*Index, len(colSets))
	for i, cols := range colSets {
		ix, built := vID.Index(cols)
		if !built {
			t.Fatalf("index on %v reported cached before any build", cols)
		}
		if ix.First(vID.Rows()[1], cols) < 0 {
			t.Fatalf("index on %v cannot find its own row", cols)
		}
		ixs[i] = ix
	}
	for i, cols := range colSets {
		if ix, built := vID.Index(append([]int{}, cols...)); built || ix != ixs[i] {
			t.Fatalf("index on %v not served from the cache", cols)
		}
		if vID.Cached(cols) != ixs[i] {
			t.Fatalf("Cached(%v) returned a different index", cols)
		}
	}
	if st := sn.Stats(); st.IndexBuilds != uint64(len(colSets)) {
		t.Fatalf("builds = %d, want %d", st.IndexBuilds, len(colSets))
	}
}

// Warm view and index lookups build their keys on the stack.
func TestSnapshotLookupsAllocateNothing(t *testing.T) {
	sn := NewSnapshot(snapFixture())
	pat, cols := []int{0, 0, 2}, []int{1}
	v := sn.View("R", pat)
	v.Index(cols)
	if n := testing.AllocsPerRun(100, func() {
		sn.View("R", pat)
		v.Index(cols)
		v.Cached(cols)
	}); n != 0 {
		t.Fatalf("warm View/Index/Cached allocate %v times per call", n)
	}
}

func TestSnapshotIndexCacheBound(t *testing.T) {
	s := New()
	s.Add("W", 1, 2, 3, 4, 5, 6)
	s.Add("W", 2, 3, 4, 5, 6, 7)
	sn := NewSnapshot(s)
	v := sn.View("W", identity(6))
	// More distinct column sets than the per-relation bound admits:
	// all 30 ordered pairs, then the 6 singletons (the tail exceeds
	// the cap and must be served transiently).
	var colSets [][]int
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if a != b {
				colSets = append(colSets, []int{a, b})
			}
		}
	}
	for a := 0; a < 6; a++ {
		colSets = append(colSets, []int{a})
	}
	for _, cols := range colSets {
		if ix, _ := v.Index(cols); ix.First(s.Tuples("W")[0], cols) < 0 {
			t.Fatalf("index on %v cannot find its own row", cols)
		}
	}
	st := sn.Stats()
	if st.IndexesCached > defaultIndexCap {
		t.Fatalf("cache exceeded its bound: %d > %d", st.IndexesCached, defaultIndexCap)
	}
	if st.IndexBuilds != uint64(len(colSets)) {
		t.Fatalf("builds = %d, want %d", st.IndexBuilds, len(colSets))
	}
	// Beyond-cap indexes are rebuilt per call (and still work).
	last := colSets[len(colSets)-1]
	if _, built := v.Index(last); !built {
		t.Fatal("beyond-cap index unexpectedly cached")
	}
}

func TestSnapshotUpdateCOW(t *testing.T) {
	sn := NewSnapshot(snapFixture())
	vE := sn.View("E", identity(2))
	vE.Index([]int{0})
	vR := sn.View("R", identity(3))

	d := NewDelta().Insert("R", 7, 8, 9).Delete("R", 5, 5, 5).Insert("S", 1)
	next, err := sn.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() <= sn.Version() {
		t.Fatalf("version did not advance: %d -> %d", sn.Version(), next.Version())
	}
	// The old snapshot is untouched.
	if sn.NumFacts() != 6 || !sn.Has("R", 5, 5, 5) || sn.Arity("S") != 0 {
		t.Fatal("Update mutated the original snapshot")
	}
	// The fork sees the delta.
	if !next.Has("R", 7, 8, 9) || next.Has("R", 5, 5, 5) || next.Arity("S") != 1 {
		t.Fatalf("fork contents wrong: %v", next.Contents())
	}
	// Untouched relations share views (and thereby warm indexes).
	if next.View("E", identity(2)) != vE {
		t.Fatal("untouched relation did not share its view across Update")
	}
	// Touched relations do not.
	if next.View("R", identity(3)) == vR {
		t.Fatal("touched relation leaked its stale view into the fork")
	}
	if next.View("R", identity(3)).Len() != 3 {
		t.Fatalf("fork R view rows = %d, want 3", next.View("R", identity(3)).Len())
	}

	// An empty delta returns the snapshot itself.
	same, err := sn.Update(NewDelta())
	if err != nil || same != sn {
		t.Fatalf("empty delta: %v, %v", same, err)
	}
}

func TestSnapshotDeltaValidation(t *testing.T) {
	sn := NewSnapshot(snapFixture())
	cases := []*Delta{
		NewDelta().Insert("E", 1, 2, 3),             // arity mismatch on insert
		NewDelta().Delete("E", 1),                   // arity mismatch on delete
		NewDelta().Insert("X", 1).Insert("X", 1, 2), // mixed arity new relation
		NewDelta().Insert("", 1),                    // empty relation name
	}
	for i, d := range cases {
		if _, err := sn.Update(d); err == nil {
			t.Fatalf("case %d: bad delta accepted", i)
		}
	}
	// Delete-only on an unknown relation is a no-op, not an error.
	next, err := sn.Update(NewDelta().Delete("X", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if next.NumFacts() != sn.NumFacts() {
		t.Fatal("no-op delete changed the snapshot")
	}
}
