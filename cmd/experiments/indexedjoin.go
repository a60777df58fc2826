package main

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"cqapprox"
	"cqapprox/internal/benchfmt"
	"cqapprox/internal/workload"
)

// benchOut, when non-empty, is the BENCH_*.json file expIndexedJoin
// merges its measurements into (set by the -bench-out flag).
var benchOut string

// expIndexedJoin is experiment E19: the indexed join runtime. Every
// E19 workload (chain/star/cycle over growing social graphs) is
// prepared once and then evaluated warm through PreparedQuery.Eval.
// With -bench-out the numbers are written into the
// benchmark baseline under the same names BenchmarkIndexedJoin
// produces, so the CI regression gate and this table stay one dataset.
func expIndexedJoin() error {
	ctx := context.Background()
	engine := cqapprox.NewEngine()
	var report *benchfmt.Report
	if benchOut != "" {
		var err error
		report, err = benchfmt.Load(benchOut)
		if os.IsNotExist(err) {
			report, err = &benchfmt.Report{Benchmarks: map[string]benchfmt.Entry{}}, nil
		}
		if err != nil {
			// A malformed baseline must not be silently replaced with an
			// E19-only file: the E17/E18 entries are not regenerable here.
			return fmt.Errorf("loading %s: %w", benchOut, err)
		}
	}
	fmt.Printf("%-8s %8s %12s %9s\n", "query", "|V|", "indexed", "answers")
	for _, c := range workload.EvalBenchSuite() {
		var (
			p   *cqapprox.PreparedQuery
			err error
		)
		if c.Exact {
			p, err = engine.PrepareExact(ctx, c.Query)
		} else {
			p, err = engine.Prepare(ctx, c.Query, cqapprox.TW(1))
		}
		if err != nil {
			return err
		}
		for _, n := range c.Sizes {
			db := workload.EvalBenchDB(n)
			ans, err := p.Eval(ctx, db)
			if err != nil {
				return err
			}
			idx := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.Eval(ctx, db); err != nil {
						b.Fatal(err)
					}
				}
			})
			fmt.Printf("%-8s %8d %12s %9d\n", c.Name, n,
				time.Duration(idx.NsPerOp()).Round(time.Microsecond), len(ans))
			if report != nil {
				name := fmt.Sprintf("BenchmarkIndexedJoin/%s/N%d", c.Name, n)
				report.Benchmarks[name] = benchfmt.Entry{NsPerOp: float64(idx.NsPerOp())}
			}
		}
	}
	if report != nil {
		if err := report.Save(benchOut); err != nil {
			return err
		}
		fmt.Printf("wrote indexed-runtime baselines to %s\n", benchOut)
	}
	return nil
}
