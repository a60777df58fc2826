package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// The reference estimator step: the per-sample algorithm the pinned
// sampler replaced, kept as its oracle. A linear scan over the root's
// live rows picks the root row, and the multiplicity reruns the
// full-join DP with every head variable pinned, over every live row of
// the tree — O(forest) per sample.

// refSample is treeSampler.sample with the reference root pick and
// multiplicity; descend (and so the sampled assignment) is shared.
func refSample(s *treeSampler, rng *rand.Rand) (float64, error) {
	root := len(s.nodes) - 1
	id := pickWeightedRef(rng, s.total, s.live, s.nodes[root].w)
	s.descend(rng, root, id)
	m := boundCountRef(s)
	if m <= 0 {
		return 0, fmt.Errorf("eval: sampled assignment has zero multiplicity")
	}
	return s.total / m, nil
}

// pickWeightedRef selects one of ids with probability w[id]/total.
func pickWeightedRef(rng *rand.Rand, total float64, ids []int32, w []uint64) int32 {
	target := rng.Float64() * total
	acc := 0.0
	pick := ids[len(ids)-1]
	for _, id := range ids {
		acc += float64(w[id])
		if acc > target {
			return id
		}
	}
	return pick // float rounding: fall back to the last candidate
}

// boundCountRef reruns the full-join DP with every head variable
// pinned to the sampled assignment, returning the multiplicity m ≥ 1
// of the sampled head projection.
func boundCountRef(s *treeSampler) float64 {
	wb := make([][]float64, len(s.nodes))
	for k := range s.nodes {
		n := &s.nodes[k]
		wb[k] = make([]float64, len(n.rows))
	rows:
		for id, row := range n.rows {
			if n.w[id] == 0 {
				continue // dead rows weigh 0
			}
			for _, hc := range n.head {
				if row[hc[0]] != s.hv[hc[1]] {
					continue rows
				}
			}
			c := 1.0
			for _, st := range n.steps {
				sum := 0.0
				cw := wb[st.child]
				for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
					sum += cw[sid]
				}
				c *= sum
			}
			wb[k][id] = c
		}
	}
	root := len(s.nodes) - 1
	m := 0.0
	for _, id := range s.live {
		m += wb[root][id]
	}
	return m
}

// randomProjectingQuery draws a random tree-shaped (hence acyclic)
// query over E/2 and T/3 whose head leaves some tree to the sampling
// estimator. Each atom hangs off one earlier variable (or, now and
// then, starts a new tree) and introduces fresh ones, so the shapes
// include deep chains, stars, several sampling trees, and roots
// holding no head variable.
func randomProjectingQuery(rng *rand.Rand) *cq.Query {
	for {
		q := &cq.Query{Name: "Q"}
		nv := 0
		fresh := func() string {
			nv++
			return fmt.Sprintf("v%d", nv-1)
		}
		for i, na := 0, 2+rng.Intn(5); i < na; i++ {
			a := cq.Atom{Rel: "E", Args: make([]string, 2)}
			if rng.Intn(4) == 0 {
				a = cq.Atom{Rel: "T", Args: make([]string, 3)}
			}
			link := rng.Intn(len(a.Args))
			for j := range a.Args {
				if j == link && nv > 0 && rng.Intn(6) != 0 {
					a.Args[j] = fmt.Sprintf("v%d", rng.Intn(nv))
				} else {
					a.Args[j] = fresh()
				}
			}
			q.Atoms = append(q.Atoms, a)
		}
		for i, nh := 0, 2+rng.Intn(3); i < nh; i++ {
			q.Head = append(q.Head, fmt.Sprintf("v%d", rng.Intn(nv)))
		}
		if p := NewPlan(q); p.mode == PlanYannakakis && !p.csched.exact {
			return q
		}
	}
}

// randomProjectingDB fills E and T over a small domain, dense enough
// that the random queries above have answers with repeated head
// projections.
func randomProjectingDB(rng *rand.Rand) *relstr.Structure {
	n := 3 + rng.Intn(4)
	db := randomDB(rng, n, 3*n)
	db.Declare("T", 3)
	for i := 0; i < 3*n; i++ {
		db.Add("T", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	return db
}

// samplesMatchRef draws a stream of samples from every sampling tree
// of p on src, over a tuned forest the estimator's counting pass
// reduced and weighed, through the estimator's step and through the
// reference step, from identically seeded generators, and reports the
// first value that differs in any bit. Equal streams make every
// estimator built on them equal too. It first holds the pass to the
// Boolean one — the same live rows — and every weight to the product,
// over the row's children, of its partners' weights.
func samplesMatchRef(ctx context.Context, p *Plan, src *relstr.Snapshot, par int, seed int64, draws int) error {
	if p.csched.est == nil {
		return nil
	}
	f, bf := p.tunedForest(src, par), p.tunedForest(src, par)
	defer p.flush(f)
	defer p.flush(bf)
	if err := f.runDown(ctx, p.csched.est); err != nil {
		return err
	}
	if err := bf.runDown(ctx, p.sched); err != nil {
		return err
	}
	for i := range f.nodes {
		if !slices.Equal(f.nodes[i].words, bf.nodes[i].words) {
			return fmt.Errorf("node %d: weighted pass leaves %v live, Boolean pass %v", i, f.nodes[i].words, bf.nodes[i].words)
		}
	}
	if f.anyEmpty() {
		return nil
	}
	for t := range p.csched.trees {
		tree := &p.csched.trees[t]
		if tree.kind != kindSample {
			continue
		}
		s, err := f.sampler(tree, p.csched.est)
		if err != nil {
			return err
		}
		for k, i := range tree.nodes {
			n := &s.nodes[k]
			for id, row := range n.rows {
				var want uint64
				if f.nodes[i].alive(int32(id)) {
					want = 1
					for _, st := range n.steps {
						var sum uint64
						for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
							sum += s.nodes[st.child].w[sid]
						}
						want *= sum
					}
				}
				if n.w[id] != want {
					return fmt.Errorf("tree %d node %d row %d weighs %d, want %d", t, i, id, n.w[id], want)
				}
			}
		}
		got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			a, errA := s.sample(got)
			b, errB := refSample(s, want)
			if errA != nil || errB != nil {
				return fmt.Errorf("tree %d sample %d: errors %v / reference %v", t, i, errA, errB)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				return fmt.Errorf("tree %d sample %d: %v, reference %v", t, i, a, b)
			}
		}
	}
	return nil
}

// Every sampled value equals the reference step's, bit for bit, on
// random projecting queries across both backends and serial/parallel
// reductions.
func TestQuickSamplerMatchesReference(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomProjectingQuery(rng)
		db := randomProjectingDB(rng)
		p := NewPlan(q)
		for _, par := range []int{1, 4} {
			for _, src := range []*relstr.Snapshot{relstr.Borrow(db), relstr.NewSnapshot(db)} {
				if err := samplesMatchRef(ctx, p, src, par, seed, 200); err != nil {
					t.Logf("q=%v: %v", q, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
