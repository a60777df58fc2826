// Command benchcheck is the benchmark-regression gate: it compares
// `go test -bench` output against a committed BENCH_*.json baseline
// and fails (exit 1) when any benchmark regressed beyond the allowed
// percentage in ns/op — or, for baselines carrying allocs/op (recorded
// from -benchmem runs), in allocations per op — or when a recorded
// work count (a custom <unit>/op metric such as candidates/op, which
// does not depend on the host) grew at all. With -update it
// (re)writes the baseline (all three) from the measured numbers
// instead.
//
// Usage:
//
//	go test -bench='PreparedReuse|ServerThroughput|IndexedJoin' \
//	    -benchmem -benchtime=500ms -count=5 . | tee bench.txt
//	go run ./cmd/benchcheck -baseline BENCH_eval.json bench.txt
//	go run ./cmd/benchcheck -baseline BENCH_eval.json -update bench.txt
//
// The input is a file argument or stdin ("-"). Under -count=N the
// minimum of the samples is compared — the fastest run is the least
// noise-disturbed one. -update records N as the baseline's count, and
// a compare refuses a run whose compared rows have fewer samples than
// that, rather than gate on one cold first call. The allocation gate only fires where both sides
// report the metric: baseline entries without allocs_per_op, and runs
// without -benchmem, skip it. Benchmarks present in the output but
// missing from the baseline are reported (and added by -update);
// baseline entries that did not run are skipped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cqapprox/internal/benchfmt"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_eval.json", "baseline JSON file to compare against (or write with -update)")
	maxRegress := flag.Float64("max-regress", 25, "maximum allowed ns/op regression in percent")
	update := flag.Bool("update", false, "write the measured numbers to the baseline instead of comparing")
	note := flag.String("note", "", "with -update: note recorded in the baseline file")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if arg := flag.Arg(0); arg != "" && arg != "-" {
		f, err := os.Open(arg)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	samples, err := benchfmt.ParseGoBench(in)
	if err != nil {
		fatal(err)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	if *update {
		rep, err := benchfmt.Load(*baselinePath)
		if os.IsNotExist(err) {
			rep = &benchfmt.Report{Benchmarks: map[string]benchfmt.Entry{}}
			err = nil
		}
		if err != nil {
			fatal(err)
		}
		if *note != "" {
			rep.Note = *note
		}
		rep.Count = benchfmt.SampleCount(samples)
		for name, s := range samples {
			e := benchfmt.Entry{NsPerOp: benchfmt.Best(s.Ns)}
			if len(s.Allocs) > 0 {
				e.AllocsPerOp = benchfmt.Allocs(benchfmt.Best(s.Allocs))
			}
			for unit, v := range s.Metrics {
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = benchfmt.Best(v)
			}
			rep.Benchmarks[name] = e
		}
		if err := rep.Save(*baselinePath); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(samples), *baselinePath)
		return
	}

	rep, err := benchfmt.Load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	if err := rep.CheckCount(samples); err != nil {
		fatal(err)
	}
	regressions := 0
	compared := 0
	for _, name := range rep.Names() {
		s, ran := samples[name]
		if !ran {
			continue
		}
		compared++
		base := rep.Benchmarks[name].NsPerOp
		best := benchfmt.Best(s.Ns)
		delta := 100 * (best - base) / base
		switch {
		case delta > *maxRegress:
			regressions++
			fmt.Printf("REGRESSION %-52s %12.0f ns/op vs baseline %12.0f (%+.1f%% > %.0f%%)\n",
				name, best, base, delta, *maxRegress)
		case delta < -*maxRegress:
			fmt.Printf("improved   %-52s %12.0f ns/op vs baseline %12.0f (%+.1f%%; consider -update)\n",
				name, best, base, delta)
		default:
			fmt.Printf("ok         %-52s %12.0f ns/op vs baseline %12.0f (%+.1f%%)\n",
				name, best, base, delta)
		}
		// Allocation gate: only where the baseline recorded allocs/op
		// and this run reported them (-benchmem). A zero baseline is a
		// promise — any allocation at all regresses it.
		if base := rep.Benchmarks[name].AllocsPerOp; base != nil && len(s.Allocs) > 0 {
			baseAllocs := *base
			bestAllocs := benchfmt.Best(s.Allocs)
			regressed := false
			if baseAllocs == 0 {
				regressed = bestAllocs > 0
			} else {
				regressed = 100*(bestAllocs-baseAllocs)/baseAllocs > *maxRegress
			}
			if regressed {
				regressions++
				fmt.Printf("REGRESSION %-52s %12.0f allocs/op vs baseline %9.0f (> %.0f%%)\n",
					name, bestAllocs, baseAllocs, *maxRegress)
			}
		}
		// Work gate: a recorded count is deterministic, so any growth
		// is a regression.
		for unit, base := range rep.Benchmarks[name].Metrics {
			if v := s.Metrics[unit]; len(v) > 0 && benchfmt.Best(v) > base {
				regressions++
				fmt.Printf("REGRESSION %-52s %12g %s vs baseline %9g (work grew)\n",
					name, benchfmt.Best(v), unit, base)
			}
		}
	}
	for name, s := range samples {
		if _, known := rep.Benchmarks[name]; !known {
			fmt.Printf("new        %-52s %12.0f ns/op (not in baseline; add with -update)\n",
				name, benchfmt.Best(s.Ns))
		}
	}
	if compared == 0 {
		fatal(fmt.Errorf("no benchmark in the input matches the baseline %s", *baselinePath))
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d regression(s): more than %.0f%% in time or allocations, or work grew\n", regressions, *maxRegress)
		os.Exit(1)
	}
	fmt.Printf("benchcheck: %d benchmark(s) within %.0f%% of %s\n", compared, *maxRegress, *baselinePath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
