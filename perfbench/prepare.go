package main

import (
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/internal/workload"
)

// prepare_cold: parse, Prepare on an emptied plan cache, first Eval —
// the static side of the paper, once per op.

// prepareClasses are the target classes; every QuerySuite query is
// prepared into each of them.
var prepareClasses = []string{"TW1", "TW2", "AC", "HTW2"}

// prepareBlockOps is one pass: len(QuerySuite()) × len(prepareClasses).
const prepareBlockOps = 32

// goldenTSV holds one line per (class, query) pair: class, query,
// approximation. Regenerate with `go test -run TestGolden -update`.
//
//go:embed golden.tsv
var goldenTSV string

type prepPair struct {
	class  string // prepareClasses entry
	c      cqapprox.Class
	text   string
	q      *cqapprox.Query
	golden *cqapprox.Query
}

type prepBench struct {
	eng   *cqapprox.Engine
	raw   *cqapprox.Structure
	db    *cqapprox.Database
	pairs []prepPair
	ops   []int // pair index of each op
	outs  []answerPrint
	apx   []string // approximation each op returned

	// Traced-phase accumulators (one goroutine drives this workload).
	parse, firstEval time.Duration
	phaseNS          map[string]int64
	searchByClass    map[string]int64
	candidates       int
	approxFound      int
}

func preparePairs() ([]prepPair, error) {
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(goldenTSV), "\n") {
		f := strings.Split(line, "\t")
		if len(f) == 3 {
			golden[f[0]+"\t"+f[1]] = f[2]
		}
	}
	var pairs []prepPair
	for _, q := range workload.QuerySuite() {
		for _, cl := range prepareClasses {
			c, err := api.ParseClass(cl)
			if err != nil {
				return nil, err
			}
			p := prepPair{class: cl, c: c, text: queryText(q), q: q}
			if g, ok := golden[cl+"\t"+p.text]; ok {
				p.golden = cqapprox.MustParse(g)
			}
			pairs = append(pairs, p)
		}
	}
	return pairs, nil
}

func setupPrepare(seed int64, nOps, phases int, traced bool) (instance, error) {
	pairs, err := preparePairs()
	if err != nil {
		return nil, err
	}
	if len(pairs) != prepareBlockOps {
		return nil, fmt.Errorf("%d query/class pairs, want %d", len(pairs), prepareBlockOps)
	}
	// The database is fixed: with a seeded one, the first-eval cost of
	// the pairs near p50 and p95 moved with the seed, and so did the
	// order of pairs those quantiles fall between. The seed orders ops.
	dbRng := rand.New(rand.NewSource(300))
	raw := workload.RandomSocial(dbRng, 300, 4, 0.3)
	tern := workload.RandomTernary(dbRng, 300, 900)
	raw.Declare("R", 3)
	for _, t := range tern.Tuples("R") {
		raw.Add("R", t...)
	}
	e := &prepBench{eng: cqapprox.NewEngine(cqapprox.WithParallelism(1)), raw: raw, pairs: pairs}
	if e.db, _, err = e.eng.RegisterDB("d300", raw); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	total := nOps * phases
	for len(e.ops) < total {
		block := rng.Perm(len(pairs))
		e.ops = append(e.ops, block...)
	}
	e.ops = e.ops[:total]
	e.outs = make([]answerPrint, total)
	e.apx = make([]string, total)
	// Warm the registered snapshot's indexes the way the warm workloads
	// do: one pass over the pairs. Outputs are overwritten later.
	for i := range pairs {
		if err := e.do(i, false); err != nil {
			return nil, fmt.Errorf("%s into %s: %w", pairs[e.ops[i]].text, pairs[e.ops[i]].class, err)
		}
	}
	return e, nil
}

func (e *prepBench) workers() int { return 1 }
func (e *prepBench) close()       {}

func (e *prepBench) heldBytes() int {
	n := sliceBytes(e.ops) + sliceBytes(e.outs) + sliceBytes(e.apx)
	for _, a := range e.apx {
		n += len(a)
	}
	return n
}

func (e *prepBench) begin(traced bool) {
	e.phaseNS = map[string]int64{}
	e.searchByClass = map[string]int64{}
}

func (e *prepBench) do(i int, traced bool) error {
	ctx := context.Background()
	pr := &e.pairs[e.ops[i]]
	e.eng.ResetCache()
	t0 := time.Now()
	q, err := cqapprox.Parse(pr.text)
	if err != nil {
		return err
	}
	t1 := time.Now()
	p, err := e.eng.Prepare(ctx, q, pr.c)
	if err != nil {
		return err
	}
	t2 := time.Now()
	ans, err := p.Bind(e.db).Eval(ctx)
	if err != nil {
		return err
	}
	e.outs[i] = printOf(ans)
	e.apx[i] = queryText(p.Approx())
	if traced {
		e.parse += t1.Sub(t0)
		e.firstEval += time.Since(t2)
		for _, ph := range p.Explain().Prepare {
			e.phaseNS[ph.Name] += ph.NS
			if ph.Name == "search" {
				e.searchByClass[pr.class] += ph.NS
			}
		}
		e.candidates += p.CandidatesInspected()
		e.approxFound += len(p.Approximations())
	}
	return nil
}

func (e *prepBench) check() []int {
	refs := newRefCache()
	verdicts := map[string]bool{}
	var bad []int
	for i, k := range e.ops {
		pr := &e.pairs[k]
		if pr.golden == nil {
			bad = append(bad, i)
			continue
		}
		key := pr.class + "\t" + pr.text + "\t" + e.apx[i]
		ok, seen := verdicts[key]
		if !seen {
			got, err := cqapprox.Parse(e.apx[i])
			// Q′ must match the golden approximation up to equivalence
			// and be contained in Q.
			ok = err == nil && cqapprox.Equivalent(got, pr.golden) && cqapprox.Contained(got, pr.q)
			verdicts[key] = ok
		}
		want := refs.naive(pr.class+"\t"+pr.text, pr.golden, e.raw)
		if !ok || e.outs[i] != want {
			bad = append(bad, i)
		}
	}
	return bad
}

func (e *prepBench) layers(p *phase) []metric {
	n := float64(p.n)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	ms := []metric{
		{"cq.parse_us", float64(e.parse.Nanoseconds()) / 1e3 / n, "us"},
		{"hom.minimize_us", us(e.phaseNS["minimize"]), "us"},
		{"core.search_us", us(e.phaseNS["search"]), "us"},
		{"eval.plan_us", us(e.phaseNS["plan"]), "us"},
		{"eval.first_eval_us", float64(e.firstEval.Nanoseconds()) / 1e3 / n, "us"},
		{"core.candidates_per_op", float64(e.candidates) / n, "count"},
		{"core.approx_yield", ratio(float64(e.approxFound), float64(e.candidates)), "fraction"},
		{"runtime.gc_cpu_frac", p.gcCPU, "fraction"},
	}
	for _, cl := range prepareClasses {
		// Per class, the mean search time of that class's ops.
		ms = append(ms, metric{"core.search_us." + strings.ToLower(cl), us(e.searchByClass[cl]) * float64(len(prepareClasses)), "us"})
	}
	return ms
}
