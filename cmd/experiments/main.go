// Command experiments regenerates every experiment in DESIGN.md's
// experiment index (E1–E25): the Figure 1 summary table, the
// quantitative content of the paper's propositions, theorems and
// examples, and the repo's own engineering experiments (E19: the
// indexed join runtime; E20: the registered database snapshot API;
// E21: morsel-driven parallel evaluation; E22: the answer counting
// subsystem; E23: ranked top-k enumeration; E24: incremental view
// maintenance; E25: sharded scatter-gather cluster scaling). Each
// experiment prints a table comparing the expected outcome against the
// measured one.
//
// Usage:
//
//	experiments              # run everything
//	experiments -run prop44  # run experiments whose name contains "prop44"
//	experiments -fast        # skip the slowest experiments
//	experiments -run indexedjoin -bench-out BENCH_eval.json
//	                         # refresh the E19 benchmark baselines
//	experiments -run registereddb -bench-out BENCH_eval.json
//	                         # refresh the E20 benchmark baselines
//	experiments -run parallel -bench-out BENCH_eval.json
//	                         # refresh the E21 benchmark baselines
//	experiments -run count -bench-out BENCH_eval.json
//	                         # refresh the E22 benchmark baselines
//	experiments -run topk -bench-out BENCH_eval.json
//	                         # refresh the E23 benchmark baselines
//	experiments -run incremental -bench-out BENCH_eval.json
//	                         # refresh the E24 benchmark baselines
//	experiments -run cluster -bench-out BENCH_eval.json
//	                         # refresh the E25 benchmark baselines
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

type experiment struct {
	name  string
	ref   string
	slow  bool
	runFn func() error
}

func main() {
	runPat := flag.String("run", "", "substring filter on experiment names")
	fast := flag.Bool("fast", false, "skip slow experiments")
	flag.StringVar(&benchOut, "bench-out", "", "merge E19 measurements into this BENCH_*.json baseline")
	flag.Parse()

	experiments := []experiment{
		{"figure1", "Figure 1: existence/size/time per class", false, expFigure1},
		{"prop44", "Prop 4.4: 2^n acyclic approximations", true, expProp44},
		{"trichotomy", "Theorem 5.1: trichotomy over graphs", false, expTrichotomy},
		{"joins", "Cor 5.3: strictly fewer joins (Boolean)", false, expJoins},
		{"dichotomy", "Thms 5.8/5.10: loop-free iff colorable", false, expDichotomy},
		{"prop59", "Prop 5.9: equal join counts (free vars)", false, expProp59},
		{"ex66", "Example 6.6: three acyclic approximations", false, expEx66},
		{"example57", "Intro Q2/Ex 5.7: unique P4 approximation", true, expExample57},
		{"speedup", "§1 motivation: exact vs approximate eval", true, expSpeedup},
		{"prop55", "Prop 5.5: combined-complexity blowup", true, expProp55},
		{"dpreduction", "Thm 4.12: reduction machinery", true, expDPReduction},
		{"prop411", "Prop 4.11: oracle decides equivalence", false, expProp411},
		{"tight", "Prop 5.6: tight approximations G_k", false, expTight},
		{"cor43", "Cor 4.3: single-exponential compute cost", true, expCor43},
		{"higherarity", "Props 5.13–5.15: beyond graphs", false, expHigherArity},
		{"cor65", "Cor 6.3/6.5: hypergraph-based sizes", false, expCor65},
		{"indexedjoin", "E19: indexed join runtime timings", true, expIndexedJoin},
		{"registereddb", "E20: registered-snapshot eval speedup", true, expRegisteredDB},
		{"parallel", "E21: morsel-driven parallel eval speedup", true, expParallel},
		{"count", "E22: exact counting vs evaluation", true, expCount},
		{"topk", "E23: ranked top-k vs eval+sort", true, expTopK},
		{"incremental", "E24: delta advance vs full re-eval", true, expIncremental},
		{"cluster", "E25: sharded scatter-gather scaling", true, expCluster},
	}

	ran := 0
	for _, e := range experiments {
		if *runPat != "" && !strings.Contains(e.name, *runPat) {
			continue
		}
		if *fast && e.slow {
			fmt.Printf("== %s (%s) — skipped (-fast)\n\n", e.name, e.ref)
			continue
		}
		fmt.Printf("== %s — %s\n", e.name, e.ref)
		if err := e.runFn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 && *runPat != "" {
		fmt.Fprintf(os.Stderr, "no experiment matches %q\n", *runPat)
		os.Exit(1)
	}
}
