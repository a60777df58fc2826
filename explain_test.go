package cqapprox

// Observability tests: golden EXPLAIN text for the workload exemplars
// (PlanExplain.Text is stable — it depends only on the plan, never on
// data or clocks), the traced-eval acceptance run on the chain-3000
// database, and a concurrent traced-eval exercise for the pooled trace
// frames (this package is part of CI's race-detector job).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cqapprox/internal/workload"
)

func TestExplainGoldenText(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	chain := workload.ChainQuery(6)
	chain.Head = nil // Boolean: the plan is direct, the unit answer

	cases := []struct {
		name    string
		prepare func() (*PreparedQuery, error)
		want    string
	}{
		{
			name:    "chain6-bool",
			prepare: func() (*PreparedQuery, error) { return e.PrepareExact(ctx, chain) },
			want: `plan: yannakakis
countable: exact
ranked: connex
incremental: delta
direct: unit
tree 0: count=unit
  [3] E(v3,v4)
    [2] E(v2,v3)
      [1] E(v1,v2)
        [0] E(v0,v1)
    [4] E(v4,v5)
      [5] E(v5,v6)
`,
		},
		{
			name:    "star5",
			prepare: func() (*PreparedQuery, error) { return e.PrepareExact(ctx, workload.StarQuery(5)) },
			want: `plan: yannakakis
countable: exact
ranked: connex
incremental: delta
direct: node 4
tree 0: count=node
  [4] R5(v0,v5) needed direct
    [3] R4(v0,v4)
      [2] R3(v0,v3)
        [1] R2(v0,v2)
          [0] R1(v0,v1)
`,
		},
		{
			name:    "cycle4-tw1",
			prepare: func() (*PreparedQuery, error) { return e.Prepare(ctx, workload.CycleQueryFree(4), TW(1)) },
			want: `plan: yannakakis
class: TW(1)
approximation: C4(x)_approx(x0) :- E(x0,x1), E(x1,x0)
countable: exact
ranked: connex
incremental: delta
direct: node 1
tree 0: count=node
  [1] E(v1,v0) needed direct
    [0] E(v0,v1)
`,
		},
		{
			// The cyclic TW(2) approximation plans as a bag search: the
			// root binds the head, the child bag is a memoised existence
			// check on its separator v1, v3.
			name:    "cycle4-tw2",
			prepare: func() (*PreparedQuery, error) { return e.Prepare(ctx, workload.CycleQueryFree(4), TW(2)) },
			want: `plan: bags
class: TW(2)
approximation: C4(x)_approx(x0) :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x0)
bag [0] v0 v1 v3: E(v0,v1) E(v3,v0)
  bag [1] v1 v2 v3: E(v1,v2) E(v2,v3) exists
`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.prepare()
			if err != nil {
				t.Fatal(err)
			}
			ex := p.Explain()
			if got := ex.Text(); got != c.want {
				t.Fatalf("explain text drifted:\ngot:\n%s\nwant:\n%s", got, c.want)
			}
			// The same prepared query explains identically on every call.
			if again := p.Explain().Text(); again != c.want {
				t.Fatalf("second Explain differs:\n%s", again)
			}
		})
	}
}

// TestEvalTraceChain3000 is the acceptance run: a traced evaluation
// against the registered chain-3000 database must report non-zero
// per-node row counts and a timed span for every phase it runs, within
// the total. Every read runs the one bottom-up pass: every non-leaf
// node sees semijoin input and leaves see none — for chain6, whose head
// lives in the root atom (a direct plan), and for the full-head chain,
// whose search joins across every node — and an exact count reports
// that pass and its count.
func TestEvalTraceChain3000(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-node database")
	}
	ctx := context.Background()
	e := NewEngine()
	p, err := e.PrepareExact(ctx, workload.ChainQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := e.RegisterDB("chain3000", workload.EvalBenchDB(3000))
	if err != nil {
		t.Fatal(err)
	}
	bound := p.Bind(d)

	ans, tr, err := bound.EvalTrace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := bound.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) == 0 || len(ans) != len(plain) {
		t.Fatalf("traced eval: %d answers, untraced: %d", len(ans), len(plain))
	}
	if tr == nil || tr.Mode != "yannakakis" || tr.TotalNS <= 0 {
		t.Fatalf("bad trace header: %+v", tr)
	}
	if len(tr.Nodes) != 6 {
		t.Fatalf("chain6 trace has %d nodes, want 6", len(tr.Nodes))
	}
	ex := p.Explain()
	if ex.Direct == "" {
		t.Fatalf("chain6 plan is not direct: %+v", ex)
	}
	// The bottom-up pass feeds exactly the non-leaf nodes.
	inputs := func(name string, ex *PlanExplain, tr *ExecTrace) {
		t.Helper()
		leaf := map[int]bool{}
		for _, tree := range ex.Trees {
			for _, n := range tree.Nodes {
				leaf[n.ID] = true
			}
			for _, n := range tree.Nodes {
				if n.Parent >= 0 {
					leaf[n.Parent] = false
				}
			}
		}
		for _, n := range tr.Nodes {
			if n.Rows <= 0 || n.Atom == "" {
				t.Fatalf("%s: node %d reports no rows or no atom: %+v", name, n.ID, n)
			}
			if leaf[n.ID] != (n.SemijoinIn == 0) {
				t.Fatalf("%s: node %d (leaf %v) saw semijoin input %d", name, n.ID, leaf[n.ID], n.SemijoinIn)
			}
		}
	}
	inputs("chain6", ex, tr)
	// Every phase a plan runs is reported, in order, with a positive
	// span, and the spans fit in the total.
	phases := func(name string, tr *ExecTrace, want ...string) {
		t.Helper()
		if len(tr.Phases) != len(want) {
			t.Fatalf("%s: phases %+v, want %v", name, tr.Phases, want)
		}
		var sum int64
		for k, ph := range tr.Phases {
			if ph.Name != want[k] || ph.NS <= 0 {
				t.Fatalf("%s: phases %+v, want %v, each timed", name, tr.Phases, want)
			}
			sum += ph.NS
		}
		if sum <= 0 || sum > tr.TotalNS {
			t.Fatalf("%s: phases sum %d outside (0, total %d]", name, sum, tr.TotalNS)
		}
	}
	phases("chain6", tr, "semijoin-down", "join", "project")

	// Counting through the same binding carries its own trace.
	res, err := bound.Count(ctx, WithTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != uint64(len(ans)) {
		t.Fatalf("traced count %d != answer count %d", res.Count, len(ans))
	}
	if res.Trace == nil || res.Trace.TotalNS <= 0 {
		t.Fatalf("count trace missing: %+v", res.Trace)
	}
	// An exact DP count runs the same one pass, rooted at its core.
	if res.Mode != "exact-dp" {
		t.Fatalf("chain6 count mode %q, want exact-dp", res.Mode)
	}
	phases("chain6 count", res.Trace, "semijoin-down", "count")

	// A plan that is not direct runs the same single pass.
	full, err := e.PrepareExact(ctx, workload.FullChainQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	fullEx := full.Explain()
	if fullEx.Direct != "" {
		t.Fatalf("full-head chain plan is direct: %+v", fullEx)
	}
	if _, tr, err = full.Bind(d).EvalTrace(ctx); err != nil {
		t.Fatal(err)
	}
	inputs("full chain", fullEx, tr)
	phases("full chain", tr, "semijoin-down", "join", "project")
}

// A traced ranked call answers exactly like the untraced one, through
// a registered snapshot and an inline database, and reports the phases
// it ran: on a connex key the bottom-up pass rooted at the first visit
// and the ordered search, on a key that falls back the phases of the
// plain evaluation it sorts.
func TestEvalTraceRanked(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	db := workload.EvalBenchDB(300)
	d, _, err := e.RegisterDB("g300", db)
	if err != nil {
		t.Fatal(err)
	}
	connex := []string{"semijoin-down", "ranked"}
	for _, c := range []struct {
		name   string
		q      *Query
		opts   []EvalOption
		phases []string
	}{
		{"reversed key", workload.FullChainQuery(3), []EvalOption{WithOrder("x3", "x2", "x1", "x0"), WithLimit(5)}, connex},
		{"descending", workload.FullChainQuery(3), []EvalOption{WithDescending(), WithLimit(7)}, connex},
		{"limit only", workload.FullChainQuery(3), []EvalOption{WithLimit(3)}, connex},
		{"unlimited", workload.FullChainQuery(2), []EvalOption{WithOrder("x1")}, connex},
		{"fallback", MustParse("Q(x,z) :- E(x,y), E(y,z)"), []EvalOption{WithOrder("z"), WithLimit(4)},
			[]string{"semijoin-down", "join", "project"}},
	} {
		p, err := e.PrepareExact(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Bind(d).Eval(ctx, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no answers", c.name)
		}
		for _, leg := range []string{"bound", "inline"} {
			var got Answers
			var tr *ExecTrace
			if leg == "bound" {
				got, tr, err = p.Bind(d).EvalTrace(ctx, c.opts...)
			} else {
				got, tr, err = p.EvalTrace(ctx, db, c.opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !equalTuples([]Tuple(got), want) {
				t.Fatalf("%s/%s: traced answers %v, untraced %v", c.name, leg, got, want)
			}
			if tr == nil || len(tr.Phases) != len(c.phases) {
				t.Fatalf("%s/%s: trace %+v, want phases %v", c.name, leg, tr, c.phases)
			}
			for k, ph := range tr.Phases {
				if ph.Name != c.phases[k] || ph.NS <= 0 || ph.NS > tr.TotalNS {
					t.Fatalf("%s/%s: phases %+v, want %v, each timed within the total %d", c.name, leg, tr.Phases, c.phases, tr.TotalNS)
				}
			}
		}
	}
}

// The per-call worker budget reaches the traced entry point: a
// parallel traced evaluation of chain6 over the 3000-node database
// fans out (extra workers or morsel chunks) and answers exactly like
// a serial one.
func TestEvalTraceParallelOption(t *testing.T) {
	if testing.Short() {
		t.Skip("3000-node database")
	}
	ctx := context.Background()
	p, err := NewEngine().PrepareExact(ctx, workload.ChainQuery(6))
	if err != nil {
		t.Fatal(err)
	}
	db := workload.EvalBenchDB(3000)
	serial, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	ans, tr, err := p.EvalTrace(ctx, db, WithEvalParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples([]Tuple(ans), serial) {
		t.Fatalf("parallel traced answers differ: %d vs %d serial", len(ans), len(serial))
	}
	if tr.Parallelism != 4 || (len(tr.WorkerBusyNS) == 0 && tr.MorselChunks <= 1) {
		t.Fatalf("traced call did not run parallel: parallelism %d, workers %d, chunks %d",
			tr.Parallelism, len(tr.WorkerBusyNS), tr.MorselChunks)
	}
}

// TestConcurrentTracedEval hammers one shared prepared query with
// concurrent traced and untraced evaluations — under -race this guards
// the pooled trace frames (each evaluation must see only its own).
func TestConcurrentTracedEval(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	p, err := e.PrepareExact(ctx, workload.StarQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	db := workload.EvalBenchDB(300)
	want, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if (w+i)%3 == 0 { // mix untraced calls through the same plan
					ans, err := p.Eval(ctx, db)
					if err != nil {
						errs <- err
						return
					}
					if len(ans) != len(want) {
						errs <- fmt.Errorf("untraced: %d answers, want %d", len(ans), len(want))
						return
					}
					continue
				}
				ans, tr, err := p.EvalTrace(ctx, db)
				if err != nil {
					errs <- err
					return
				}
				if len(ans) != len(want) {
					errs <- fmt.Errorf("traced: %d answers, want %d", len(ans), len(want))
					return
				}
				if tr == nil || len(tr.Nodes) != 5 || tr.TotalNS <= 0 {
					errs <- fmt.Errorf("bad trace: %+v", tr)
					return
				}
				for _, n := range tr.Nodes {
					if n.Rows <= 0 {
						errs <- fmt.Errorf("node %d rows=%d in concurrent trace", n.ID, n.Rows)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
