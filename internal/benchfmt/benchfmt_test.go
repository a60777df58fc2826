package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cqapprox
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkIndexedJoin/chain6/N300-8         	     237	   1443496 ns/op
BenchmarkIndexedJoin/chain6/N300-8         	     240	   1401210 ns/op
BenchmarkIndexedJoin/star5/N1000-8         	     230	   1580214 ns/op
BenchmarkPreparedReuse_Warm/OLTP-8         	  150000	      7521 ns/op	 1024 B/op	      12 allocs/op
BenchmarkServerThroughput-8                	    5000	    211000 ns/op	     4821 evals/s
BenchmarkApproxSearch/AC/T3-8              	     400	   1300000 ns/op	       168.0 candidates/op	  459439 B/op	    4788 allocs/op
BenchmarkApproxSearch/AC/T3-8              	     410	   1290000 ns/op	       168.0 candidates/op	  459439 B/op	    4788 allocs/op
PASS
ok  	cqapprox	5.078s
`

func TestParseGoBench(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d benchmarks: %v", len(got), got)
	}
	chain := got["BenchmarkIndexedJoin/chain6/N300"]
	if len(chain.Ns) != 2 || Best(chain.Ns) != 1401210 {
		t.Fatalf("chain samples = %v", chain.Ns)
	}
	if len(chain.Allocs) != 0 {
		t.Fatalf("chain allocs = %v (no -benchmem on that line)", chain.Allocs)
	}
	warm := got["BenchmarkPreparedReuse_Warm/OLTP"]
	if len(warm.Ns) != 1 || warm.Ns[0] != 7521 {
		t.Fatalf("warm sample = %v (B/op suffix must not confuse the parser)", warm.Ns)
	}
	if len(warm.Allocs) != 1 || warm.Allocs[0] != 12 {
		t.Fatalf("warm allocs = %v, want [12]", warm.Allocs)
	}
	if v := got["BenchmarkServerThroughput"]; len(v.Ns) != 1 || v.Ns[0] != 211000 {
		t.Fatalf("throughput sample = %v (custom metrics must not confuse the parser)", v.Ns)
	}
	if v := got["BenchmarkServerThroughput"]; len(v.Allocs) != 0 || len(v.Metrics) != 0 {
		t.Fatalf("throughput allocs = %v, metrics = %v (evals/s is not a per-op metric)", v.Allocs, v.Metrics)
	}
	if v := got["BenchmarkPreparedReuse_Warm/OLTP"]; len(v.Metrics) != 0 {
		t.Fatalf("warm metrics = %v (B/op is not recorded)", v.Metrics)
	}
}

// A custom <unit>/op metric parses per sample, next to allocs/op, and
// round-trips through a report.
func TestParseGoBenchMetrics(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	s := got["BenchmarkApproxSearch/AC/T3"]
	if c := s.Metrics["candidates/op"]; len(c) != 2 || c[0] != 168 || c[1] != 168 {
		t.Fatalf("candidates/op samples = %v", s.Metrics)
	}
	if len(s.Metrics) != 1 || len(s.Allocs) != 2 || s.Allocs[0] != 4788 || Best(s.Ns) != 1290000 {
		t.Fatalf("approx samples = %+v", s)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	r := &Report{Benchmarks: map[string]Entry{"BenchmarkApproxSearch/AC/T3": {NsPerOp: 1, Metrics: map[string]float64{"candidates/op": 168}}}}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := back.Benchmarks["BenchmarkApproxSearch/AC/T3"].Metrics; m["candidates/op"] != 168 {
		t.Fatalf("metrics roundtrip = %v", m)
	}
}

// A baseline measured under -count=5 refuses a compared row with fewer
// samples, so the gate never rests on one cold first call; rows it
// does not hold, and older files without a count, are not checked.
func TestCheckCount(t *testing.T) {
	got, err := ParseGoBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if n := SampleCount(got); n != 1 {
		t.Fatalf("sample count = %d, want 1 (the fewest of any row)", n)
	}
	r := &Report{Count: 2, Benchmarks: map[string]Entry{"BenchmarkIndexedJoin/chain6/N300": {NsPerOp: 1}}}
	if err := r.CheckCount(got); err != nil {
		t.Fatalf("two samples under count 2: %v", err)
	}
	r.Count = 5
	if err := r.CheckCount(got); err == nil || !strings.Contains(err.Error(), "BenchmarkIndexedJoin/chain6/N300 has 2 sample(s)") {
		t.Fatalf("two samples under count 5: %v", err)
	}
	r.Benchmarks = map[string]Entry{"BenchmarkNotRun": {NsPerOp: 1}}
	if err := r.CheckCount(got); err != nil {
		t.Fatalf("a row that did not run: %v", err)
	}
	r.Count = 0
	r.Benchmarks = map[string]Entry{"BenchmarkServerThroughput": {NsPerOp: 1}}
	if err := r.CheckCount(got); err != nil {
		t.Fatalf("a baseline without a count: %v", err)
	}
}

func TestReportRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	r := &Report{Note: "test", Count: 5, Benchmarks: map[string]Entry{
		"BenchmarkA": {NsPerOp: 123, AllocsPerOp: Allocs(17)},
		"BenchmarkB": {NsPerOp: 4.5e6},
		"BenchmarkC": {NsPerOp: 9, AllocsPerOp: Allocs(0)}, // zero is a recorded promise, not absence
	}}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "test" || got.Count != 5 || len(got.Benchmarks) != 3 || got.Benchmarks["BenchmarkB"].NsPerOp != 4.5e6 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if a := got.Benchmarks["BenchmarkA"].AllocsPerOp; a == nil || *a != 17 {
		t.Fatalf("allocs roundtrip = %+v", got.Benchmarks)
	}
	if got.Benchmarks["BenchmarkB"].AllocsPerOp != nil {
		t.Fatalf("absent allocs decoded non-nil: %+v", got.Benchmarks)
	}
	if a := got.Benchmarks["BenchmarkC"].AllocsPerOp; a == nil || *a != 0 {
		t.Fatalf("zero-alloc baseline lost: %+v", got.Benchmarks)
	}
	if names := got.Names(); names[0] != "BenchmarkA" || names[1] != "BenchmarkB" {
		t.Fatalf("names = %v", names)
	}
}
