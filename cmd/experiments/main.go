// Command experiments reproduces the paper experiments of DESIGN.md's
// experiment index (E1–E16): the Figure 1 summary table and the
// quantitative content of the paper's propositions, theorems and
// examples. Each experiment prints a table comparing the expected
// outcome against the measured one and fails on any violated claim.
// The repo's own engineering experiments (E17–E25) are Go benchmarks
// pinned in BENCH_eval.json plus deterministic Go tests.
//
// Usage:
//
//	experiments              # run everything
//	experiments -run prop44  # run experiments whose name contains "prop44"
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
	runFn func() error
}

func main() {
	runPat := flag.String("run", "", "substring filter on experiment names")
	flag.Parse()

	experiments := []experiment{
		{"figure1", "Figure 1: existence/size/time per class", expFigure1},
		{"prop44", "Prop 4.4: 2^n acyclic approximations", expProp44},
		{"trichotomy", "Theorem 5.1: trichotomy over graphs", expTrichotomy},
		{"joins", "Cor 5.3: strictly fewer joins (Boolean)", expJoins},
		{"dichotomy", "Thms 5.8/5.10: loop-free iff colorable", expDichotomy},
		{"prop59", "Prop 5.9: equal join counts (free vars)", expProp59},
		{"ex66", "Example 6.6: three acyclic approximations", expEx66},
		{"example57", "Intro Q2/Ex 5.7: unique P4 approximation", expExample57},
		{"speedup", "§1 motivation: exact vs approximate eval", expSpeedup},
		{"prop55", "Prop 5.5: combined-complexity blowup", expProp55},
		{"dpreduction", "Thm 4.12: reduction machinery", expDPReduction},
		{"prop411", "Prop 4.11: oracle decides equivalence", expProp411},
		{"tight", "Prop 5.6: tight approximations G_k", expTight},
		{"cor43", "Cor 4.3: single-exponential compute cost", expCor43},
		{"higherarity", "Props 5.13–5.15: beyond graphs", expHigherArity},
		{"cor65", "Cor 6.3/6.5: hypergraph-based sizes", expCor65},
	}

	ran := 0
	for _, e := range experiments {
		if *runPat != "" && !strings.Contains(e.name, *runPat) {
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
