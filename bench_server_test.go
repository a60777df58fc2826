package cqapprox_test

// E18: service-layer throughput. BenchmarkServerThroughput pushes the
// warm mixed prepare/eval/stream workload (default LoadGen mix, 1:8:1)
// through the real HTTP stack — httptest server, JSON bodies, NDJSON
// streams — and reports eval requests/sec plus the engine cache
// hit-rate. The acceptance bar (DESIGN.md): ≥ 1000 eval req/s warm.
// This file is an external test package: the client and api packages
// import cqapprox, so an in-package test would be an import cycle.

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/server"
	"cqapprox/internal/workload"
	"cqapprox/internal/workload/httpdrive"
)

func BenchmarkServerThroughput(b *testing.B) {
	benchServerThroughput(b, 0, 0, 0)
}

// BenchmarkServerThroughputRegistered runs the same mixed workload
// with half the eval/stream traffic evaluating by registered database
// name (POST /v1/db up front, then eval-by-name) — the register-once
// traffic shape the snapshot API targets.
func BenchmarkServerThroughputRegistered(b *testing.B) {
	benchServerThroughput(b, 0.5, 0, 0)
}

// BenchmarkServerThroughputCounting additionally turns a quarter of
// the eval traffic into /v1/count requests (half of those estimating).
func BenchmarkServerThroughputCounting(b *testing.B) {
	benchServerThroughput(b, 0.5, 0.25, 0)
}

// BenchmarkServerThroughputTraced samples an execution trace on a
// tenth of the eval/count traffic — the deployed ANALYZE-sampling
// shape — and reports the mean traced-vs-untraced eval latency.
func BenchmarkServerThroughputTraced(b *testing.B) {
	benchServerThroughput(b, 0.5, 0.25, 0.1)
}

// BenchmarkServerReadAfterWrite is one registered read through the
// typed client: the TW(1) approximation of CycleQueryFree(4) on
// EvalBenchDB(3000), 2,922 answers, the shape of the read after a write
// in perfbench's update_live. The executor is about half of it; the
// rest is the answers' trip over the wire (encode, HTTP, decode).
func BenchmarkServerReadAfterWrite(b *testing.B) {
	eng := cqapprox.NewEngine()
	if _, _, err := eng.RegisterDB("raw", workload.EvalBenchDB(3000)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	defer ts.Close()
	c := client.New(ts.URL).WithHTTPClient(ts.Client())
	q := workload.CycleQueryFree(4)
	q.Name = "Q"
	req := api.EvalRequest{Query: q.String(), Class: "TW1", DB: "raw"}
	ctx := context.Background()
	res, err := c.Eval(ctx, req) // prepare and warm the indexes
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Answers) != 2922 {
		b.Fatalf("%d answers, want 2922", len(res.Answers))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

func benchServerThroughput(b *testing.B, registeredShare, countShare, traceShare float64) {
	eng := cqapprox.NewEngine()
	srv := server.New(eng, server.Config{MaxInflightPrepare: 16, MaxInflightEval: 256})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL).WithHTTPClient(ts.Client())
	exec := httpdrive.Executor(c)
	ctx := context.Background()
	gen := &workload.LoadGen{
		Seed:            7,
		Concurrency:     runtime.GOMAXPROCS(0),
		RegisteredShare: registeredShare,
		CountShare:      countShare,
		TraceShare:      traceShare,
	}

	// Warm the cache: every suite query's search is paid here, outside
	// the timer, so the measured regime is the service's steady state.
	if warm := gen.Run(ctx, 64, exec); len(warm.FirstErrs) > 0 {
		b.Fatalf("warmup failed: %v", warm.FirstErrs[0])
	}

	b.ResetTimer()
	rep := gen.Run(ctx, b.N, exec)
	b.StopTimer()
	if len(rep.FirstErrs) > 0 {
		b.Fatalf("workload failed: %v", rep.FirstErrs[0])
	}
	stats := srv.Stats()
	hitRate := 0.0
	if total := stats.Cache.Hits + stats.Cache.Misses; total > 0 {
		hitRate = float64(stats.Cache.Hits) / float64(total)
	}
	b.ReportMetric(rep.PerSecond(), "req/s")
	b.ReportMetric(rep.KindPerSecond(workload.OpEval), "eval-req/s")
	b.ReportMetric(hitRate, "cache-hit-rate")
	b.ReportMetric(rep.P50[workload.OpEval].Seconds()*1e3, "eval-p50-ms")
	b.ReportMetric(rep.P95[workload.OpEval].Seconds()*1e3, "eval-p95-ms")
	b.ReportMetric(rep.P99[workload.OpEval].Seconds()*1e3, "eval-p99-ms")
	if countShare > 0 {
		b.ReportMetric(rep.KindPerSecond(workload.OpCount), "count-req/s")
		b.ReportMetric(rep.P95[workload.OpCount].Seconds()*1e3, "count-p95-ms")
	}
	if traceShare > 0 {
		traced, untraced := rep.TraceOverhead(workload.OpEval)
		b.ReportMetric(traced.Seconds()*1e3, "eval-traced-mean-ms")
		b.ReportMetric(untraced.Seconds()*1e3, "eval-untraced-mean-ms")
	}
}
