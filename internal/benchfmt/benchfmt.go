// Package benchfmt is the tiny shared substrate of the repo's
// benchmark-regression tooling: the BENCH_*.json baseline format and a
// parser for `go test -bench` output. cmd/benchcheck compares fresh
// bench output against a committed baseline (the CI perf gate) and,
// with -update, rewrites it.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Entry is one benchmark's baseline record. AllocsPerOp is a pointer
// so a recorded 0 allocs/op baseline (which the gate protects — a
// regression from zero is the one it must catch) stays distinguishable
// from "allocations never measured" (nil; the gate skips those).
// Metrics holds the benchmark's own b.ReportMetric counts per op, by
// unit (e.g. "candidates/op"): work that does not depend on the host.
type Entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Allocs wraps a measured allocs/op value for Entry.AllocsPerOp.
func Allocs(v float64) *float64 { return &v }

// Samples are one benchmark's measurements across -count repetitions.
// Allocs is empty when the run did not report allocations; Metrics
// holds the custom <unit>/op metrics by unit.
type Samples struct {
	Ns      []float64
	Allocs  []float64
	Metrics map[string][]float64
}

// Report is the on-disk shape of a BENCH_*.json file.
type Report struct {
	// Note documents how the numbers were produced (command line,
	// machine class) — advisory, not compared.
	Note string `json:"note,omitempty"`
	// Count is the -count the rows were measured under: the compare
	// refuses a row with fewer samples, whose minimum could be one cold
	// first call. Zero (an older file) checks nothing.
	Count int `json:"count,omitempty"`
	// Benchmarks maps a benchmark name (GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkIndexedJoin/chain6/N3000") to its baseline.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Load reads a report from path.
func Load(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Benchmarks == nil {
		r.Benchmarks = map[string]Entry{}
	}
	return &r, nil
}

// Save writes the report to path with stable formatting (sorted keys,
// indented) so committed baselines diff cleanly.
func (r *Report) Save(path string) error {
	if r.Benchmarks == nil {
		r.Benchmarks = map[string]Entry{}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// benchLine matches one result line of `go test -bench` output:
//
//	BenchmarkIndexedJoin/chain6/N300-8   237   1443496 ns/op   12 allocs/op
//
// The trailing -<procs> is stripped from the name; B/op and metrics
// not per op (e.g. evals/s) are ignored.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op`)

// opField matches one <value> <unit>/op metric in the line tail.
var opField = regexp.MustCompile(`\s([0-9.]+(?:e[+-]?\d+)?) (\S+/op)`)

// ParseGoBench collects the ns/op (and, when reported under -benchmem,
// allocs/op) samples per benchmark name from `go test -bench` output
// (multiple samples under -count=N).
func ParseGoBench(r io.Reader) (map[string]*Samples, error) {
	out := map[string]*Samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		s := out[m[1]]
		if s == nil {
			s = &Samples{}
			out[m[1]] = s
		}
		s.Ns = append(s.Ns, v)
		for _, f := range opField.FindAllStringSubmatch(sc.Text()[len(m[0]):], -1) {
			a, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			switch f[2] {
			case "B/op":
			case "allocs/op":
				s.Allocs = append(s.Allocs, a)
			default:
				if s.Metrics == nil {
					s.Metrics = map[string][]float64{}
				}
				s.Metrics[f[2]] = append(s.Metrics[f[2]], a)
			}
		}
	}
	return out, sc.Err()
}

// Best reduces a sample set to its minimum — the standard
// noise-robust statistic for regression gating (the fastest run is the
// least disturbed one).
func Best(samples []float64) float64 {
	best := samples[0]
	for _, s := range samples[1:] {
		if s < best {
			best = s
		}
	}
	return best
}

// SampleCount is the -count a run was measured under: the fewest
// samples of any of its benchmarks (0 for an empty run).
func SampleCount(samples map[string]*Samples) int {
	n := 0
	for _, s := range samples {
		if n == 0 || len(s.Ns) < n {
			n = len(s.Ns)
		}
	}
	return n
}

// CheckCount reports an error naming the benchmark of samples with
// fewer samples than the report's Count, if any (the first in name
// order). Only rows the report holds are checked: those are the ones a
// compare gates on.
func (r *Report) CheckCount(samples map[string]*Samples) error {
	for _, name := range r.Names() {
		if s, ran := samples[name]; ran && len(s.Ns) < r.Count {
			return fmt.Errorf("%s has %d sample(s), but the baseline was measured under -count=%d: rerun with -count=%d or more", name, len(s.Ns), r.Count, r.Count)
		}
	}
	return nil
}

// Names returns the report's benchmark names in sorted order.
func (r *Report) Names() []string {
	names := make([]string, 0, len(r.Benchmarks))
	for n := range r.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
