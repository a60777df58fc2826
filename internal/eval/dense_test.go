package eval

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"cqapprox/internal/cq"
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
// children before parents, weighing nodes as down does, and returns the
// live counts, liveness words and weights after each step.
func stepBitmaps(f *forest, sched *schedule) [][]uint64 {
	var out [][]uint64
	var down func(i int)
	down = func(i int) {
		for _, c := range sched.children[i] {
			down(c)
		}
		for _, st := range sched.downOf[i] {
			if st.weighted {
				f.nodes[i].weigh()
			}
			f.semijoin(st)
			var snap []uint64
			for k := range f.nodes {
				snap = append(snap, uint64(f.nodes[k].live))
				snap = append(snap, f.nodes[k].words...)
				snap = append(snap, f.nodes[k].wt...)
			}
			out = append(out, snap)
		}
		if sched.weighted != nil && sched.weighted[i] {
			f.nodes[i].weigh()
		}
	}
	for _, r := range sched.roots {
		down(r)
	}
	return out
}

func randomAcyclicQuery(rng *rand.Rand) *cq.Query { return randomQuery(rng, true) }

// TestKernelParity holds the dense kernel to the index kernel step by
// step: on random plans and databases (dense ids, and a sparse variant
// whose odd values lie far outside the dense bound), every semijoin
// step runs serially and under a parallel budget with one-word
// morsels, once on the data as drawn and once with every value shifted
// out of the dense bound, which keeps the row ids and forces the index
// kernel. The liveness bitmaps and the per-row weights must agree word
// for word after each step of both counting passes — Count's, which
// weighs the dp cores, and the estimate's, which also weighs the
// sample trees. The serial index run is the reference.
func TestKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	legs := []forestLeg{
		{"index", true, 1},
		{"dense", false, 1},
		{"dense-parallel", false, 4},
		{"index-parallel", true, 4},
	}
	plans, weighted := 0, 0
	var dense int64
	for iter := 0; iter < 120; iter++ {
		// Three generators: random shapes, dp and node cores below the
		// tree root, and sample trees.
		q := []func(*rand.Rand) *cq.Query{randomAcyclicQuery, randomCoreQuery, randomProjectingQuery}[iter%3](rng)
		p := NewPlan(q)
		if p.mode != PlanYannakakis {
			continue
		}
		db := randomCoreDB(rng, 12+rng.Intn(40), 100+rng.Intn(400))
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
		for _, sched := range []*schedule{p.csched.sched, p.csched.est} {
			if sched == nil {
				continue
			}
			if sched.weighted != nil {
				weighted++
			}
			var want [][]uint64
			for _, leg := range legs {
				sn := drawn
				if leg.shifted {
					sn = shifted
				}
				f := leg.forest(p, sn)
				f.trace = getExecTrace(len(f.nodes))
				got := stepBitmaps(f, sched)
				n := denseSteps(f.trace)
				putExecTrace(f.trace)
				f.trace = nil
				if leg.shifted && n != 0 {
					t.Fatalf("q=%v %s: %d dense steps on shifted data", q, leg.name, n)
				}
				dense += n
				if want == nil {
					want = got
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("q=%v %s: %d steps, want %d", q, leg.name, len(got), len(want))
				}
				for k := range got {
					if !slices.Equal(got[k], want[k]) {
						t.Fatalf("q=%v %s: bitmaps or weights diverge after step %d:\n  got  %v\n  want %v", q, leg.name, k, got[k], want[k])
					}
				}
			}
		}
	}
	if plans < 100 || weighted < 60 {
		t.Fatalf("only %d acyclic plans drawn, %d weighted passes", plans, weighted)
	}
	if dense == 0 {
		t.Fatal("the dense kernel never ran")
	}
	t.Logf("%d plans, %d weighted passes, %d dense steps", plans, weighted, dense)
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

// weighedForest builds a forest of rels whose first node parents the
// others, with the schedule that weighs every node, so every step is
// weighted; a parallel budget runs one-word morsels.
func weighedForest(par int, rels ...rel) (*forest, *schedule) {
	f := &forest{nodes: make([]execNode, len(rels)), par: par, minPar: 1, morsel: 2}
	vars, parent, weighted := make([][]int, len(rels)), make([]int, len(rels)), make([]bool, len(rels))
	for i, r := range rels {
		f.nodes[i] = execNode{rows: r.rows, vars: r.vars, view: relstr.NewView(r.rows), words: allAlive(len(r.rows)), live: len(r.rows)}
		vars[i], parent[i], weighted[i] = r.vars, 0, true
	}
	parent[0] = -1
	f.initSlots()
	return f, weighSchedule(scheduleForAtoms(vars, parent), weighted)
}

// TestCountDPKeyOverflow pins the overflow rule of the weighted step on
// both kernels, serially and in parallel: a key whose child-weight sum
// overflows uint64 makes the count overflow only when a parent row
// that reads it survives every step of its node — not when the row is
// dead, nor when a later step kills it — exactly as on the index path,
// where the sum is only ever formed for a live parent row. The index
// legs run the same rows shifted out of the dense bound. Across trees
// the count overflows in the product of the trees' counts: two star
// components of 2^32 answers each (hub degree 256, four leaves) fit
// one by one, and their product, 2^64, does not.
func TestCountDPKeyOverflow(t *testing.T) {
	ctx := context.Background()
	parent := rel{vars: []int{0}, rows: [][]int{{1}, {2}}}
	child := rel{vars: []int{0, 1}, rows: [][]int{{1, 10}, {1, 11}, {2, 12}}}
	only2 := rel{vars: []int{0}, rows: [][]int{{2}}} // kills the parent row with key 1
	cnt := []uint64{1 << 63, 1 << 63, 7}             // key 1 sums to 2^64; key 2 to 7
	for _, shifted := range []bool{false, true} {
		l, r, k := parent, child, only2
		if shifted {
			l, r, k = relabelRel(parent, shiftOut), relabelRel(child, shiftOut), relabelRel(only2, shiftOut)
		}
		for _, par := range []int{1, 4} {
			for _, c := range []struct {
				name     string
				rels     []rel
				dead     bool // the parent row with key 1 starts dead
				overflow bool
			}{
				{"read", []rel{l, r}, false, true},
				{"dead", []rel{l, r}, true, false},
				{"killed by a later step", []rel{l, r, k}, false, false},
			} {
				f, sched := weighedForest(par, c.rels...)
				f.nodes[1].wt = slices.Clone(cnt)
				if c.dead {
					f.nodes[0].words[0] &^= 1
					f.nodes[0].live--
				}
				f.trace = getExecTrace(len(f.nodes))
				if err := f.runDown(ctx, sched); err != nil {
					t.Fatal(err)
				}
				dense := denseSteps(f.trace)
				putExecTrace(f.trace)
				want := int64(len(c.rels) - 1)
				if shifted {
					want = 0
				}
				if dense != want {
					t.Fatalf("shifted=%v %s: %d dense steps, want %d", shifted, c.name, dense, want)
				}
				if f.overflow.Load() != c.overflow {
					t.Fatalf("shifted=%v par=%d %s: overflow = %v", shifted, par, c.name, !c.overflow)
				}
				if !c.overflow && (f.nodes[0].live != 1 || f.nodes[0].wt[1] != 7) {
					t.Fatalf("shifted=%v par=%d %s: %d live, key 2 weighs %d, want 1 and 7", shifted, par, c.name, f.nodes[0].live, f.nodes[0].wt[1])
				}
			}
		}
	}
	stars := relstr.New()
	for i := range 256 {
		stars.Add("E", 0, i)
		stars.Add("F", 0, i)
	}
	for k, src := range []string{
		"Q(h,a,b,c,d) :- E(h,a), E(h,b), E(h,c), E(h,d)",
		"Q(h,a,b,c,d,g,i,j,k,l) :- E(h,a), E(h,b), E(h,c), E(h,d), F(g,i), F(g,j), F(g,k), F(g,l)",
	} {
		p := NewPlan(cq.MustParse(src))
		if len(p.csched.trees) != k+1 || slices.ContainsFunc(p.csched.trees, func(ct countTree) bool { return ct.kind != kindDP }) {
			t.Fatalf("%s: want %d dp trees: %s", src, k+1, p.Explain().Text())
		}
		for _, par := range []int{1, 4} {
			res, err := p.Count(ctx, relstr.Borrow(stars), Read{Par: par})
			if k == 0 && (err != nil || res.Count != 1<<32) {
				t.Fatalf("%s par=%d: Count = %+v (err %v), want 2^32", src, par, res, err)
			}
			if k == 1 && !errors.Is(err, ErrCountOverflow) {
				t.Fatalf("%s par=%d: err = %v, want ErrCountOverflow", src, par, err)
			}
		}
	}
}

// TestDenseKernelChoice pins which kernel one step runs. A key whose
// live source values lie inside the bound in its first column is
// summarised densely with no index build — a bitset for one column,
// groups for two or more, a hub key's included; a first-column value
// beyond the bound builds and probes the index. A weighted step's sum
// array has the tighter bound: a key the semijoin's bitset covers can
// still send the weighted step to the index, and a weighted key of two
// or more columns always takes it. Every choice kills the same rows, serially
// and under a parallel budget with one-word morsels.
func TestDenseKernelChoice(t *testing.T) {
	cols := func(row, cs []int) []int {
		out := make([]int, len(cs))
		for i, c := range cs {
			out[i] = row[c]
		}
		return out
	}
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
		putExecTrace(f.trace)

		// The weighted step: the same survivors, each weighing its number
		// of source partners.
		f = pairForest(c.target, c.src, relstr.NewView(c.src.rows), c.par)
		f.morsel = 64
		f.trace = getExecTrace(2)
		f.nodes[0].weigh()
		f.nodes[1].weigh()
		weighted := c.step
		weighted.weighted = true
		f.semijoin(weighted)
		if got := f.trace.nodes[0].dense.Load() == 1; got != c.dpDense {
			t.Fatalf("%s: weighted dense = %v, want %v", c.name, got, c.dpDense)
		}
		if f.nodes[0].live != c.survivors {
			t.Fatalf("%s: %d weighted survivors, want %d", c.name, f.nodes[0].live, c.survivors)
		}
		for id, row := range c.target.rows {
			var want uint64
			for _, srow := range c.src.rows {
				if slices.Equal(cols(row, c.step.tCols), cols(srow, c.step.sCols)) {
					want++
				}
			}
			if got := f.nodes[0].wt[id]; got != want {
				t.Fatalf("%s: row %v weighs %d, want %d", c.name, row, got, want)
			}
		}
		putExecTrace(f.trace)
	}
}
