package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"cqapprox"
)

var update = flag.Bool("update", false, "rewrite golden.tsv from a fresh engine")

// TestGolden re-derives the prepare_cold golden table and checks the
// committed one agrees up to equivalence (or rewrites it with -update).
func TestGolden(t *testing.T) {
	pairs, err := preparePairs()
	if err != nil {
		t.Fatal(err)
	}
	eng := cqapprox.NewEngine()
	var b strings.Builder
	for _, p := range pairs {
		pq, err := eng.Prepare(context.Background(), p.q, p.c)
		if err != nil {
			t.Fatalf("%s into %s: %v", p.text, p.class, err)
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\n", p.class, p.text, queryText(pq.Approx()))
		if !*update && (p.golden == nil || !cqapprox.Equivalent(pq.Approx(), p.golden)) {
			t.Errorf("%s into %s: approximation %v, golden %v", p.text, p.class, pq.Approx(), p.golden)
		}
	}
	if *update {
		if err := os.WriteFile("golden.tsv", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptedExpectationFails runs a short clean phase of every
// workload, checks that it passes, then corrupts one expectation (the
// reference data or golden entry an output is compared with) and
// checks that the run now reports failed ops.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			n := w.window
			inst, err := w.setup(7, n, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			if p := runPhase(inst, 0, n, false); p.errs != 0 {
				t.Fatalf("%d ops failed", p.errs)
			}
			if bad := inst.check(); len(bad) != 0 {
				t.Fatalf("clean run: %d wrong outputs", len(bad))
			}
			switch in := inst.(type) {
			case *serveBench:
				for _, w := range in.wire {
					delete(w, "E")
				}
			case *execBench:
				removeFacts(in.raw, "R1", 1)
			case *prepBench:
				for k := range in.pairs {
					in.pairs[k].golden = cqapprox.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
				}
			case *updateBench:
				// Op 0 is not a checkpoint; its read is still checked.
				in.outs[0].sum++
				if bad := inst.check(); len(bad) != 1 || bad[0] != 0 {
					t.Fatalf("wrong read at op 0: check reported %v", bad)
				}
				in.outs[0].sum--
				base := liveBase
				defer func() { liveBase = base }()
				liveBase = func() *cqapprox.Structure {
					db := base()
					removeFacts(db, "E", -1)
					return db
				}
			}
			if bad := inst.check(); len(bad) == 0 {
				t.Fatal("corrupted expectation reported no failure")
			}
		})
	}
}

// removeFacts removes the first n facts of rel (all when n < 0).
func removeFacts(db *cqapprox.Structure, rel string, n int) {
	for k, tup := range db.Tuples(rel) {
		if k == n {
			return
		}
		db.Remove(rel, tup...)
	}
}
