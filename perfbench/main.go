// Command perfbench is the repository benchmark: it runs one named
// workload against the cqapprox engine in this process, checks every
// output against an independent reference, and prints the metrics as a
// JSON object on the last line of standard output.
//
//	perfbench --workload exec_analytic --seed 1 --seconds 12 --trace 0
//
// --seconds sets the size of the timed phase, not a deadline: each
// workload runs a fixed number of operations, seconds × its nominal
// rate on the reference host (see README.md). With --trace 1 the run
// measures an untraced phase, then the same number of operations
// traced, and prints the per-layer metrics instead of the end-to-end
// ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec is one entry of the benchmark's workload table.
type spec struct {
	// rate is the nominal ops/s on the reference host (2 vCPU); the
	// timed phase runs about rate × seconds ops, in whole windows.
	rate float64
	// window is the op-count granularity and the ops_per_s window. It
	// holds whole blocks; every block of a workload holds the same
	// multiset of op kinds, so the total work does not depend on the
	// seed.
	window int
	// setup builds a ready instance for nOps ops per phase.
	setup func(seed int64, nOps, phases int, traced bool) (instance, error)
}

// instance is a workload that is ready to run.
type instance interface {
	// workers is the number of goroutines driving load.
	workers() int
	// begin is called before each phase's timer starts.
	begin(traced bool)
	// do performs op i and records its output for check.
	do(i int, traced bool) error
	// check compares every recorded output with its reference and
	// returns the indices of the ops whose output was wrong.
	check() []int
	// layers returns the per-layer metrics of the traced phase p.
	layers(p *phase) []metric
	// heldBytes is the size of the per-op inputs and outputs the
	// benchmark holds for check, which heap_live_mb leaves out.
	heldBytes() int
	close()
}

var workloads = map[string]spec{
	"serve_oltp":    {rate: 6500, window: 20 * len(serveBlock), setup: setupServe},
	"exec_analytic": {rate: 90, window: execBlockOps, setup: setupExec},
	"prepare_cold":  {rate: 100, window: prepareBlockOps, setup: setupPrepare},
	"update_live":   {rate: 55, window: 20, setup: setupUpdate},
}

// setupReps is how many times a run builds its workload; setup_s is
// the median, and the last build is the one measured.
const setupReps = 11

type metric struct {
	Name  string
	Value float64
	Unit  string
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 12, "size of the timed phase, in seconds at the nominal rate")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(name string, w spec, seed int64, seconds float64, traced bool) (*result, error) {
	nOps := max(1, int(w.rate*seconds/float64(w.window)+0.5)) * w.window
	phases := 1
	if traced {
		phases = 2
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%t ops_per_phase=%d\n", name, seed, seconds, traced, nOps)

	// setups holds each set-up's process CPU seconds, setupWall its
	// elapsed seconds.
	var setups, setupWall []float64
	var inst instance
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		t0, c0 := time.Now(), processCPU()
		in, err := w.setup(seed, nOps, phases, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	steal0 := readSteal()
	base := runPhase(inst, 0, nOps, false)
	heapMB := liveHeapMB() - float64(inst.heldBytes()+base.heldBytes())/1e6
	var tr *phase
	if traced {
		tr = runPhase(inst, nOps, nOps, true)
	}
	steal := readSteal().shareSince(steal0)

	// References are computed after the timer, never inside it.
	bad := inst.check()
	errs := base.errs
	if tr != nil {
		errs += tr.errs
	}
	attempted := nOps * phases
	failed := min(attempted, len(bad)+errs)

	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s steal_share=%.4f\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	// The wall-clock metrics and failed_frac are reported here, outside
	// the metrics object: wall time moves with the host's steal share by
	// more than any bound a regression gate could use, and failed_frac
	// is 0 on a correct commit (README.md).
	fmt.Printf("# wall ops_per_s=%.3f lat_p50_us=%.3f lat_p95_us=%.3f samples=%d beyond_p95=%d setup_wall_s=%.4f\n", base.opsPerSec(w.window), base.quantileUS(0.50), base.quantileUS(0.95), len(base.lat), len(base.lat)-1-min(len(base.lat)-1, int(0.95*float64(len(base.lat)))), median(setupWall))
	fmt.Printf("# failed_frac=%g setup_cpu_runs=%.4f setup_wall_runs=%.4f\n", float64(failed)/float64(attempted), setups, setupWall)
	for _, p := range []*phase{base, tr} {
		if p != nil && p.firstErr != nil {
			fmt.Printf("# first error of %d in a phase: %v\n", p.errs, p.firstErr)
		}
	}
	for _, i := range bad[:min(len(bad), 5)] {
		fmt.Printf("# wrong output: op %d\n", i)
	}

	var ms []metric
	var err error
	if traced {
		ms = inst.layers(tr)
		ms = append(ms, metric{"trace.overhead_frac", 1 - tr.opsPerSec(w.window)/base.opsPerSec(w.window), "fraction"})
		if ms, err = completeLayers(ms); err != nil {
			return nil, err
		}
	} else {
		ms = []metric{
			{"setup_s", median(setups), "s"},
			{"cpu_us_per_op", float64(base.cpu.Nanoseconds()) / 1e3 / float64(nOps), "us"},
			{"allocs_per_op", float64(base.mallocs) / float64(nOps), "count"},
			{"alloc_kb_per_op", float64(base.bytes) / 1024 / float64(nOps), "KiB"},
			{"heap_live_mb", heapMB, "MB"},
		}
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	return res, nil
}
