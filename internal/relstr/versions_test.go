package relstr

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// Model-based tests of snapshot versions: every version Update makes
// must read exactly like a fresh snapshot of a structure built by
// replaying the same changes from scratch, and forking or extending a
// version must leave its ancestors as they were.

// modelVersion is one version of a model run: the snapshot and the
// structure built by replaying its changes from scratch.
type modelVersion struct {
	sn    *Snapshot
	model *Structure
}

// versionStats counts what a model run exercised.
type versionStats struct {
	overlayCompactions int // compactions past the appended-rows share
	deadCompactions    int // compactions past the dead-rows share
	extended           int // index walks over a base plus an overlay
	inPlace            int // appends that took the parent's tail
	copied             int // appends that copied the parent's rows
}

func (s *versionStats) add(o versionStats) {
	s.overlayCompactions += o.overlayCompactions
	s.deadCompactions += o.deadCompactions
	s.extended += o.extended
	s.inPlace += o.inPlace
	s.copied += o.copied
}

// runVersionModel draws a random tree of delta chains from seed and
// checks every version against its model, then every version again
// once all of its descendants exist.
func runVersionModel(t *testing.T, seed int64) versionStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const dom = 12
	base := New()
	base.Declare("A", 2)
	base.Declare("B", 3)
	for i, n := 0, rng.Intn(160); i < n; i++ {
		base.Add("A", rng.Intn(dom), rng.Intn(dom))
	}
	for i, n := 0, rng.Intn(60); i < n; i++ {
		base.Add("B", rng.Intn(4), rng.Intn(4), rng.Intn(4))
	}
	root := modelVersion{sn: NewSnapshot(base), model: base}
	if rng.Intn(2) == 0 {
		root.sn = Borrow(base.Clone())
	}
	var st versionStats
	st.add(checkVersion(t, root, rng))
	versions := []modelVersion{root}
	for step := 0; step < 48; step++ {
		// Mostly extend the newest version; every third step branches
		// off a random one, racing the branches for its tail.
		parent := versions[len(versions)-1]
		if rng.Intn(3) == 0 {
			parent = versions[rng.Intn(len(versions))]
		}
		d, model := randomChange(rng, parent.model, dom, step)
		sn, err := parent.sn.Update(d)
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		st.add(checkCompaction(t, parent, sn, d))
		v := modelVersion{sn: sn, model: model}
		st.add(checkVersion(t, v, rng))
		versions = append(versions, v)
	}
	for i, v := range versions {
		if i > 0 && i%4 == 0 {
			// Children compacted or extended the index caches since: an
			// ancestor must still read as it did.
			st.add(checkVersion(t, v, rng))
		}
	}
	return st
}

// randomChange draws a delta over model and returns it with the model
// of its result: mostly a few changes, sometimes enough to pass both
// compaction shares at once. It mixes deletes of present and absent
// facts, inserts of present facts, re-inserts of facts just deleted,
// fresh inserts, inserts into a relation the version lacks and deletes
// from one nobody declared.
func randomChange(rng *rand.Rand, model *Structure, dom, step int) (*Delta, *Structure) {
	type fact struct {
		name string
		t    []int
	}
	var dels, ins []fact
	n := 1 + rng.Intn(3)
	if rng.Intn(8) == 0 {
		n = 10 + rng.Intn(30)
	}
	for k := 0; k < n; k++ {
		switch op := rng.Intn(10); {
		case op < 3: // delete a present fact, sometimes re-inserting it
			name := []string{"A", "A", "B"}[rng.Intn(3)]
			ts := model.Tuples(name)
			if len(ts) == 0 {
				continue
			}
			t := ts[rng.Intn(len(ts))].Clone()
			dels = append(dels, fact{name, t})
			if rng.Intn(3) == 0 {
				ins = append(ins, fact{name, t})
			}
		case op < 4: // delete a random fact, often absent
			dels = append(dels, fact{"A", []int{rng.Intn(2 * dom), rng.Intn(2 * dom)}})
		case op < 5: // insert a present fact: a no-op
			if ts := model.Tuples("A"); len(ts) > 0 {
				ins = append(ins, fact{"A", ts[rng.Intn(len(ts))].Clone()})
			}
		case op < 8:
			ins = append(ins, fact{"A", []int{rng.Intn(dom), rng.Intn(dom)}})
		case op < 9:
			ins = append(ins, fact{"B", []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}})
		default: // a relation the version may lack, or one nobody declares
			if rng.Intn(2) == 0 {
				name := fmt.Sprintf("N%d", step%5)
				arity := step%5 + 1
				if a := model.Arity(name); a != 0 {
					arity = a
				}
				t := make([]int, arity)
				for i := range t {
					t[i] = rng.Intn(3)
				}
				ins = append(ins, fact{name, t})
			} else {
				dels = append(dels, fact{"Z", []int{rng.Intn(dom)}})
			}
		}
	}
	d, next := NewDelta(), model.Clone()
	for _, f := range dels {
		d.Delete(f.name, f.t...)
		next.Remove(f.name, f.t...)
	}
	for _, f := range ins {
		d.Insert(f.name, f.t...)
		next.Add(f.name, f.t...)
	}
	return d, next
}

// checkCompaction holds each relation the delta touched to the
// compaction rule: Update compacts exactly when the parent borrows a
// caller's structure or when the rows appended since the last
// compaction, or the dead rows, pass 1/compactShare of the relation's
// rows, and otherwise shares the parent's rows, appending in place only
// when it is the first to take the parent's tail.
func checkCompaction(t *testing.T, parent modelVersion, sn *Snapshot, d *Delta) versionStats {
	t.Helper()
	var st versionStats
	for _, name := range d.Touched() {
		r, c := parent.sn.rels[name], sn.rels[name]
		if r == nil {
			continue
		}
		after := parent.model.Clone()
		kills := 0
		for _, tu := range d.Deletes(name) {
			if after.Remove(name, tu...) {
				kills++
			}
		}
		adds := 0
		for _, tu := range d.Inserts(name) {
			if after.Add(name, tu...) {
				adds++
			}
		}
		n := len(r.id.rows)
		m, dead := n+adds, r.dead+kills
		byOverlay, byDead := (m-r.base)*compactShare > m, dead*compactShare > m
		switch {
		case r.borrowed || byOverlay || byDead:
			if c.base != len(c.id.rows) || c.dead != 0 || c.id.live != nil || len(c.id.indexes) != 0 {
				t.Fatalf("%s: not compacted (base %d of %d rows, %d dead)", name, c.base, len(c.id.rows), c.dead)
			}
			if byOverlay {
				st.overlayCompactions++
			}
			if byDead {
				st.deadCompactions++
			}
		default:
			if len(c.id.rows) != m || c.base != r.base || c.dead != dead {
				t.Fatalf("%s: rows %d base %d dead %d, want %d %d %d", name, len(c.id.rows), c.base, c.dead, m, r.base, dead)
			}
			if adds > 0 && n > 0 {
				if &c.id.rows[0] == &r.id.rows[0] {
					st.inPlace++
				} else {
					st.copied++
				}
			}
		}
		if (len(c.id.rows)-c.base)*compactShare > len(c.id.rows) || c.dead*compactShare > len(c.id.rows) {
			t.Fatalf("%s: past the compaction share after Update", name)
		}
	}
	return st
}

// checkVersion compares v's snapshot with a fresh snapshot of its
// model: shape, membership, contents, the identity view's live rows in
// id order, a pattern view, and the live rows of index walks on
// several column sets, in walk order.
func checkVersion(t *testing.T, v modelVersion, rng *rand.Rand) versionStats {
	t.Helper()
	var st versionStats
	sn, model := v.sn, v.model
	fresh := NewSnapshot(model)
	if got, want := sn.Relations(), model.Relations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("relations %v, want %v", got, want)
	}
	if sn.NumFacts() != model.NumFacts() || sn.Size() != model.Size() || sn.Arity("Z") != 0 {
		t.Fatalf("facts %d size %d, want %d %d", sn.NumFacts(), sn.Size(), model.NumFacts(), model.Size())
	}
	contents := sn.Contents()
	if !contents.Equal(model) {
		t.Fatalf("contents %v, want %v", contents, model)
	}
	for _, name := range model.Relations() {
		arity := model.Arity(name)
		if sn.Arity(name) != arity {
			t.Fatalf("%s: arity %d, want %d", name, sn.Arity(name), arity)
		}
		want := model.Tuples(name)
		if !sameRows(tupleRows(contents.Tuples(name)), want) {
			t.Fatalf("%s: contents order %v, want %v", name, contents.Tuples(name), want)
		}
		iv := sn.View(name, identity(arity))
		live := liveRows(iv)
		if !sameRows(live, want) || iv.Len() != len(want) {
			t.Fatalf("%s: identity view live rows %v (len %d), want %v", name, live, iv.Len(), want)
		}
		if iv.Live() != nil {
			if got := popcount(iv.Live()); got != len(want) || len(iv.Live()) != (len(iv.Rows())+63)/64 {
				t.Fatalf("%s: liveness bitmap has %d bits over %d words for %d live of %d rows", name, got, len(iv.Live()), len(want), len(iv.Rows()))
			}
		}
		for _, tu := range want {
			if !sn.Has(name, tu...) {
				t.Fatalf("%s: Has%v false", name, tu)
			}
		}
		for k := 0; k < 8; k++ {
			tu := make([]int, arity)
			for i := range tu {
				tu[i] = rng.Intn(14)
			}
			if sn.Has(name, tu...) != model.Has(name, tu...) {
				t.Fatalf("%s: Has%v = %v", name, tu, !model.Has(name, tu...))
			}
		}
		if arity >= 2 {
			pat := identity(arity)
			pat[1] = 0
			if got, want := sn.View(name, pat).Rows(), fresh.View(name, pat).Rows(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: pattern view %v = %v, want %v", name, pat, got, want)
			}
		}
		colSets := [][]int{{0}, identity(arity)}
		if arity >= 2 {
			colSets = append(colSets, []int{arity - 1}, []int{1, 0})
		}
		fv := fresh.View(name, identity(arity))
		for _, cols := range colSets {
			ix, _ := iv.Index(cols)
			if ix.ovl.head != nil {
				st.extended++
			}
			if iv.Cached(cols) != ix {
				t.Fatalf("%s: Cached(%v) is not the index Index returned", name, cols)
			}
			fix, _ := fv.Index(cols)
			probes := append([][]int{}, tupleRows(want)...)
			for k := 0; k < 4; k++ {
				p := make([]int, arity)
				for i := range p {
					p[i] = rng.Intn(14)
				}
				probes = append(probes, p)
			}
			for _, p := range probes {
				got := walkLive(ix, iv, p, cols)
				exp := walkLive(fix, fv, p, cols)
				if !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s: walk on %v from %v = %v, want %v", name, cols, p, got, exp)
				}
			}
		}
	}
	return st
}

// walkLive returns the live rows an index walk for probe returns, in
// walk order.
func walkLive(ix *Index, v *View, probe, cols []int) [][]int {
	var out [][]int
	for id := ix.First(probe, cols); id >= 0; id = ix.Next(id, probe, cols) {
		if alive(v.live, int(id)) {
			out = append(out, v.Rows()[id])
		}
	}
	return out
}

// liveRows returns the view's live rows in id order.
func liveRows(v *View) [][]int {
	var out [][]int
	for id, row := range v.Rows() {
		if alive(v.live, id) {
			out = append(out, row)
		}
	}
	return out
}

func sameRows(rows [][]int, ts []Tuple) bool {
	if len(rows) != len(ts) {
		return false
	}
	for i := range rows {
		if !ts[i].Equal(rows[i]) {
			return false
		}
	}
	return true
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// FuzzSnapshotVersions holds random trees of delta chains to the
// replay-from-scratch model (see runVersionModel).
func FuzzSnapshotVersions(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runVersionModel(t, seed)
	})
}

// The model runs of a few fixed seeds cover every path a version can
// take: both compaction causes, indexes extended with an overlay, and
// appends that take the parent's tail as well as ones that copy.
func TestSnapshotVersionsModel(t *testing.T) {
	var st versionStats
	for seed := int64(1); seed <= 12; seed++ {
		st.add(runVersionModel(t, seed))
	}
	if st.overlayCompactions == 0 || st.deadCompactions == 0 || st.extended == 0 || st.inPlace == 0 || st.copied == 0 {
		t.Fatalf("model runs missed a path: %+v", st)
	}
	t.Logf("%+v", st)
}
