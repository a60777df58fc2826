package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cqapprox/internal/relstr"
)

// relabel returns a copy of db with every value v replaced by f(v).
// f must be injective, so every answer count is unchanged.
func relabel(db *relstr.Structure, f func(int) int) *relstr.Structure {
	out := relstr.New()
	for _, name := range db.Relations() {
		out.Declare(name, db.Arity(name))
		for _, t := range db.Tuples(name) {
			vals := make([]int, len(t))
			for i, v := range t {
				vals[i] = f(v)
			}
			out.Add(name, vals...)
		}
	}
	return out
}

// relabelRel is relabel for one relation's rows.
func relabelRel(r rel, f func(int) int) rel {
	out := rel{vars: r.vars}
	for _, row := range r.rows {
		vals := make([]int, len(row))
		for i, v := range row {
			vals[i] = f(v)
		}
		out.rows = append(out.rows, vals)
	}
	return out
}

// shiftOut moves every value far above any dense bound. It is
// injective and monotone, so a relabelled database keeps its row order
// and row ids, and every step of it runs the index kernel.
func shiftOut(v int) int { return v + 1<<40 }

// The two relabelings that push every key outside the dense bound, so
// the index fallback runs where the tiny fuzz domains would otherwise
// take only the dense kernel.
var fallbackLabels = []struct {
	name string
	f    func(int) int
}{
	{"shifted", shiftOut},
	{"negative", func(v int) int { return -v - 1 }},
}

// forestLeg is one way to run the same steps: on the data as drawn
// (the dense kernel wherever the bound admits it) or shifted out of
// every dense bound (the index kernel), under a worker budget (par > 1
// forces morsels down to one word).
type forestLeg struct {
	name    string
	shifted bool
	par     int
}

func (l forestLeg) forest(p *Plan, sn *relstr.Snapshot) *forest {
	f := p.newForest(sn, l.par)
	if l.par > 1 {
		f.minPar, f.morsel = 1, 64
	}
	return f
}

// denseSteps sums the dense steps a traced forest recorded.
func denseSteps(tr *execTrace) int64 {
	var n int64
	for i := range tr.nodes {
		n += tr.nodes[i].dense.Load()
	}
	return n
}

// stepBitmaps applies every step of the bottom-up pass of sched to f,
// children before parents, and returns the liveness words and live
// counts after each step.
func stepBitmaps(f *forest, sched *schedule) [][]uint64 {
	var out [][]uint64
	var down func(i int)
	down = func(i int) {
		for _, c := range sched.children[i] {
			down(c)
		}
		for _, st := range sched.downOf[i] {
			f.semijoin(st)
			var snap []uint64
			for k := range f.nodes {
				snap = append(snap, uint64(f.nodes[k].live))
				snap = append(snap, f.nodes[k].words...)
			}
			out = append(out, snap)
		}
	}
	for _, r := range sched.roots {
		down(r)
	}
	return out
}

// dpCountsOf runs the counting DP of every dp tree on a reduced forest,
// rendering each tree's per-node counts (or its error) as text.
func dpCountsOf(ctx context.Context, p *Plan, f *forest) []string {
	var out []string
	for ti := range p.csched.trees {
		tree := &p.csched.trees[ti]
		if tree.kind != countDP {
			continue
		}
		cnt, err := f.dpCounts(ctx, tree)
		out = append(out, fmt.Sprint(cnt, err))
	}
	return out
}

// TestKernelParity holds the dense kernel to the index kernel step by
// step: on random plans and databases (dense ids, and a sparse variant
// whose odd values lie far outside the dense bound), every semijoin
// step runs serially and under a parallel budget with one-word
// morsels, once on the data as drawn and once with every value shifted
// out of the dense bound, which keeps the row ids and forces the index
// kernel. The liveness bitmaps must agree word for word after each
// step of the counting pass, and so must the DP's per-row counts over
// the reduced forests. The serial index run is the reference.
func TestKernelParity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	legs := []forestLeg{
		{"index", true, 1},
		{"dense", false, 1},
		{"dense-parallel", false, 4},
		{"index-parallel", true, 4},
	}
	plans := 0
	var dense int64
	for iter := 0; iter < 80; iter++ {
		q := randomQuery(rng, true)
		p := NewPlan(q)
		if p.mode != PlanYannakakis {
			continue
		}
		db := randomDB(rng, 12+rng.Intn(40), 100+rng.Intn(400))
		if iter%4 == 3 {
			db = relabel(db, func(v int) int {
				if v%2 == 1 {
					return shiftOut(v)
				}
				return v
			})
		}
		plans++
		drawn, shifted := relstr.NewSnapshot(db), relstr.NewSnapshot(relabel(db, shiftOut))
		var want [][]uint64
		var wantDP []string
		for _, leg := range legs {
			sn := drawn
			if leg.shifted {
				sn = shifted
			}
			f := leg.forest(p, sn)
			f.trace = getExecTrace(len(f.nodes))
			got := stepBitmaps(f, p.csched.sched)
			var dp []string
			if !f.anyEmpty() {
				dp = dpCountsOf(ctx, p, f)
			}
			n := denseSteps(f.trace)
			putExecTrace(f.trace)
			f.trace = nil
			if leg.shifted && n != 0 {
				t.Fatalf("q=%v %s: %d dense steps on shifted data", q, leg.name, n)
			}
			dense += n
			if want == nil {
				want, wantDP = got, dp
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("q=%v %s: %d steps, want %d", q, leg.name, len(got), len(want))
			}
			for k := range got {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("q=%v %s: bitmaps diverge after step %d:\n  got  %v\n  want %v", q, leg.name, k, got[k], want[k])
				}
			}
			if !slices.Equal(dp, wantDP) {
				t.Fatalf("q=%v %s: DP counts diverge:\n  got  %v\n  want %v", q, leg.name, dp, wantDP)
			}
		}
	}
	if plans < 40 {
		t.Fatalf("only %d acyclic plans drawn", plans)
	}
	if dense == 0 {
		t.Fatal("the dense kernel never ran")
	}
	t.Run("steps", func(t *testing.T) { stepParity(t, rng) })
}

// stepParity holds the grouped kernel to the index kernel on single
// steps the random plans rarely draw: keys of two and three columns
// whose source has a hub — one first-column value with hundreds of
// partners — and, in some draws, a first-column value out of the dense
// bound, which sends the step to the index. Each step runs serially
// and under a parallel budget with one-word morsels, on the rows as
// drawn and shifted out of the bound; the surviving target rows must
// agree bit for bit with the serial index run.
func stepParity(t *testing.T, rng *rand.Rand) {
	grouped := 0
	for iter := 0; iter < 60; iter++ {
		w := 2 + iter%2
		vars := []int{0, 1, 2}[:w]
		draw := func(n, dom int) rel {
			r := rel{vars: vars}
			seen := map[[3]int]bool{}
			for k := 0; k < n; k++ {
				var key [3]int
				for i := range w {
					key[i] = rng.Intn(dom)
				}
				if k%3 == 0 {
					key[0] = 3 // the hub
				}
				if !seen[key] {
					seen[key] = true
					r.rows = append(r.rows, slices.Clone(key[:w]))
				}
			}
			return r
		}
		target, source := draw(200+rng.Intn(600), 20), draw(100+rng.Intn(600), 20)
		outOfBound := iter%4 == 3
		if outOfBound {
			source.rows = append(source.rows, append([]int{1 << 40}, source.rows[0][1:]...))
		}
		cols := []int{0, 1, 2}[:w]
		step := sjStep{target: 0, source: 1, tCols: cols, sCols: cols}
		var want []uint64
		for _, leg := range []struct {
			shifted bool
			par     int
		}{{true, 1}, {false, 1}, {false, 4}, {true, 4}} {
			tg, sc := target, source
			if leg.shifted {
				tg, sc = relabelRel(target, shiftOut), relabelRel(source, shiftOut)
			}
			f := pairForest(tg, sc, relstr.NewView(sc.rows), leg.par)
			f.morsel = 64
			f.trace = getExecTrace(2)
			f.semijoin(step)
			isDense := f.trace.nodes[0].dense.Load() == 1
			putExecTrace(f.trace)
			if isDense != (!leg.shifted && !outOfBound) {
				t.Fatalf("iter %d shifted=%v par=%d: dense = %v", iter, leg.shifted, leg.par, isDense)
			}
			if isDense {
				grouped++
			}
			got := append([]uint64{uint64(f.nodes[0].live)}, f.nodes[0].words...)
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("iter %d w=%d shifted=%v par=%d: survivors diverge:\n  got  %v\n  want %v", iter, w, leg.shifted, leg.par, got, want)
			}
		}
	}
	if grouped == 0 {
		t.Fatal("the grouped kernel never ran")
	}
}

// TestCountDPKeyOverflow pins the DP's overflow rule on both kernels:
// a key whose child-count sum overflows uint64 is an error only when a
// live parent row reads it, exactly as on the index path, where the
// sum is only ever formed for a live parent row. The index leg runs
// the same rows shifted out of the dense bound.
func TestCountDPKeyOverflow(t *testing.T) {
	parent := rel{vars: []int{0}, rows: [][]int{{1}, {2}}}
	child := rel{vars: []int{0, 1}, rows: [][]int{{1, 10}, {1, 11}, {2, 12}}}
	cnt := []uint64{1 << 63, 1 << 63, 7} // key 1 sums to 2^64; key 2 to 7
	edge := dpEdge{child: 1, tCols: []int{0}, sCols: []int{0}}
	for _, shifted := range []bool{false, true} {
		l, r := parent, child
		if shifted {
			l, r = relabelRel(parent, shiftOut), relabelRel(child, shiftOut)
		}
		for _, par := range []int{1, 4} {
			for _, readOverflow := range []bool{false, true} {
				f := pairForest(l, r, relstr.NewView(r.rows), par)
				if !readOverflow {
					f.nodes[0].words[0] &^= 1 // the parent row with key 1 dies
					f.nodes[0].live--
				}
				st := f.resolveDP(0, edge, cnt)
				if st.dense == shifted {
					t.Fatalf("shifted=%v: dense kernel = %v", shifted, st.dense)
				}
				out := make([]uint64, len(parent.rows))
				ok := f.countDP(&f.nodes[0], []dpStep{st}, out)
				if st.buf != nil {
					keyBufs.put(st.buf)
				}
				if ok == readOverflow {
					t.Fatalf("shifted=%v par=%d readOverflow=%v: ok = %v", shifted, par, readOverflow, ok)
				}
				if ok && out[1] != 7 {
					t.Fatalf("shifted=%v par=%d: key 2 counts %d, want 7", shifted, par, out[1])
				}
			}
		}
	}
}

// TestDenseKernelChoice pins which kernel one step runs. A key whose
// live source values lie inside the bound in its first column is
// summarised densely with no index build — a bitset for one column,
// groups for two or more, a hub key's included; a first-column value
// beyond the bound builds and probes the index. The DP's sum array has
// the tighter bound: a key the semijoin's bitset covers can still send
// the DP edge to the index. Every choice kills the same rows, serially
// and under a parallel budget with one-word morsels.
func TestDenseKernelChoice(t *testing.T) {
	src := rel{vars: []int{0, 1}}
	for v := 0; v < 100; v++ {
		src.rows = append(src.rows, []int{v, v % 7})
	}
	wideSrc := rel{vars: src.vars, rows: append(slices.Clone(src.rows), []int{1000, 1})}
	farSrc := rel{vars: src.vars, rows: append(slices.Clone(src.rows), []int{1 << 20, 1})}
	hubSrc := rel{vars: src.vars}
	for v := 0; v < 5000; v++ {
		hubSrc.rows = append(hubSrc.rows, []int{5, 2 * v}) // key 5's partners are the even values
	}
	src3 := rel{vars: []int{0, 1, 2}}
	for v := 0; v < 100; v++ {
		src3.rows = append(src3.rows, []int{v, v % 7, v % 3})
	}
	target := rel{vars: []int{0, 1}, rows: [][]int{{5, 5}, {5, 6}, {500, 3}}}
	target3 := rel{vars: []int{0, 1, 2}, rows: [][]int{{5, 5, 2}, {5, 6, 2}, {5, 5, 1}, {500, 3, 0}}}
	wideTarget := rel{vars: []int{0, 1}}
	for v := 0; v < 300; v++ {
		wideTarget.rows = append(wideTarget.rows, []int{v, v % 5})
	}
	one := sjStep{target: 0, source: 1, tCols: []int{0}, sCols: []int{0}}
	two := sjStep{target: 0, source: 1, tCols: []int{0, 1}, sCols: []int{0, 1}}
	three := sjStep{target: 0, source: 1, tCols: []int{0, 1, 2}, sCols: []int{0, 1, 2}}
	for _, c := range []struct {
		name      string
		target    rel
		src       rel
		step      sjStep
		par       int
		dense     bool
		survivors int
		dpDense   bool
	}{
		{"one column", target, src, one, 1, true, 2, true},
		{"beyond the sum bound", target, wideSrc, one, 1, true, 2, false},
		{"beyond the bit bound", target, farSrc, one, 1, false, 2, false},
		{"two columns", target, src, two, 1, true, 1, false},
		{"two columns, first beyond the bit bound", target, farSrc, two, 1, false, 1, false},
		{"two columns, hub key", target, hubSrc, two, 1, true, 1, false},
		{"three columns", target3, src3, three, 1, true, 1, false},
		// 300 target rows in five one-word morsels; v%5 == v%7 for v < 100
		// only when v%35 < 5, so 15 rows survive.
		{"two columns, parallel one-word morsels", wideTarget, src, two, 4, true, 15, false},
		{"two columns shifted, parallel one-word morsels", relabelRel(wideTarget, shiftOut), relabelRel(src, shiftOut), two, 4, false, 15, false},
	} {
		f := pairForest(c.target, c.src, relstr.NewView(c.src.rows), c.par)
		f.morsel = 64
		f.trace = getExecTrace(2)
		f.semijoin(c.step)
		nt := &f.trace.nodes[0]
		if got := nt.dense.Load() == 1; got != c.dense {
			t.Fatalf("%s: semijoin dense = %v, want %v", c.name, got, c.dense)
		}
		if built := nt.builds.Load() == 1; built == c.dense {
			t.Fatalf("%s: index built = %v with dense = %v", c.name, built, c.dense)
		}
		if f.nodes[0].live != c.survivors {
			t.Fatalf("%s: %d survivors, want %d", c.name, f.nodes[0].live, c.survivors)
		}
		if len(c.step.sCols) == 1 {
			cnt := make([]uint64, len(c.src.rows))
			st := f.resolveDP(0, dpEdge{child: 1, tCols: c.step.tCols, sCols: c.step.sCols}, cnt)
			if st.dense != c.dpDense {
				t.Fatalf("%s: DP dense = %v, want %v", c.name, st.dense, c.dpDense)
			}
			if st.buf != nil {
				keyBufs.put(st.buf)
			}
		}
		putExecTrace(f.trace)
		f.trace = nil
	}
}
