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
	chain.Head = nil // Boolean: the dead-step analysis collapses to unit

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
  [3] E(v3,v4) joins=2 skipped=2
    [2] E(v2,v3) joins=1 skipped=1
      [1] E(v1,v2) joins=1 skipped=1
        [0] E(v0,v1)
    [4] E(v4,v5) joins=1 skipped=1
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
  [4] R5(v0,v5) needed direct joins=1 skipped=1
    [3] R4(v0,v4) joins=1 skipped=1
      [2] R3(v0,v3) joins=1 skipped=1
        [1] R2(v0,v2) joins=1 skipped=1
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
  [1] E(v1,v0) needed direct joins=1 skipped=1
    [0] E(v0,v1)
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
// per-node row counts and phase times that account for the bulk of the
// total.
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
	for _, n := range tr.Nodes {
		if n.Rows <= 0 || n.Atom == "" {
			t.Fatalf("node %d reports no rows or no atom: %+v", n.ID, n)
		}
		if n.SemijoinIn <= 0 {
			t.Fatalf("node %d saw no semijoin input: %+v", n.ID, n)
		}
	}
	var phaseSum int64
	for _, ph := range tr.Phases {
		if ph.NS < 0 {
			t.Fatalf("negative phase %q", ph.Name)
		}
		phaseSum += ph.NS
	}
	if phaseSum <= 0 || phaseSum > tr.TotalNS {
		t.Fatalf("phases sum %d outside (0, total %d]", phaseSum, tr.TotalNS)
	}
	if phaseSum < tr.TotalNS/2 {
		t.Fatalf("phases sum %d accounts for under half of total %d", phaseSum, tr.TotalNS)
	}

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
