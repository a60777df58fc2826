package cqapprox_test

// E25: sharded-cluster throughput. BenchmarkClusterScatterGather
// measures one coordinator fanning scatter-gather evaluations over a
// 3-node in-process cluster (the fact relation tuple-partitioned, the
// dimensions replicated); BenchmarkServerThroughputCluster3 pushes the
// mixed LoadGen workload at the same cluster through the node-routing
// executor. TestClusterScatterEquivalence (internal/server) asserts
// the single-node byte-identity; here the benchmarks only measure,
// plus a one-shot identity check outside the timer.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/relstr"
	"cqapprox/internal/server"
	"cqapprox/internal/workload"
	"cqapprox/internal/workload/httpcluster"
	"cqapprox/internal/workload/httpdrive"
)

// startBenchCluster starts n nodes sized so ClusterBenchDB's fact
// relation partitions and its dimensions replicate, and registers the
// database at node 0.
func startBenchCluster(b *testing.B, n, dbNodes int) (*httpcluster.Cluster, []*client.Client) {
	b.Helper()
	db := workload.ClusterBenchDB(dbNodes)
	base := server.Config{MaxInflightPrepare: 16, MaxInflightEval: 256}
	base.Cluster.ReplicateBelow = len(db.Tuples("R1")) + len(db.Tuples("R2")) + 1
	cl := httpcluster.Start(n, base)
	clients := cl.Clients()
	if _, err := clients[0].RegisterDB(context.Background(), api.RegisterDBRequest{
		Name: "social", Database: httpdrive.WireDB(db),
	}); err != nil {
		cl.Close()
		b.Fatalf("register: %v", err)
	}
	return cl, clients
}

func BenchmarkClusterScatterGather(b *testing.B) {
	cl, clients := startBenchCluster(b, 3, 300)
	defer cl.Close()
	ctx := context.Background()
	req := api.EvalRequest{
		Query: workload.ClusterQuerySuite()[0].String(),
		Class: "TW1", DB: "social",
	}

	// One-shot identity check against a single node, outside the timer.
	eng := cqapprox.NewEngine()
	control := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	if _, err := client.New(control.URL).RegisterDB(ctx, api.RegisterDBRequest{
		Name: "social", Database: httpdrive.WireDB(workload.ClusterBenchDB(300)),
	}); err != nil {
		b.Fatalf("control register: %v", err)
	}
	got, err := clients[0].Eval(ctx, req)
	if err != nil {
		b.Fatalf("scatter eval: %v", err)
	}
	want, err := client.New(control.URL).Eval(ctx, req)
	if err != nil {
		b.Fatalf("control eval: %v", err)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) {
		b.Fatalf("scatter answers diverge from single-node (%d vs %d answers)", len(got.Answers), len(want.Answers))
	}
	control.Close()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := clients[0].Eval(ctx, req); err != nil {
				b.Fatalf("scatter eval: %v", err)
			}
		}
	})
	b.StopTimer()
	if cs := cl.Servers[0].Stats().Cluster; cs == nil || cs.ScatterEvals == 0 {
		b.Fatal("benchmark did not exercise scatter-gather")
	}
}

// BenchmarkServerThroughputCluster3 is BenchmarkServerThroughputRegistered
// over a 3-node cluster: the same deterministic mixed workload, shaped
// by the cluster query suite, with stateless traffic spread across all
// nodes and registered-database traffic coordinated by node 0.
func BenchmarkServerThroughputCluster3(b *testing.B) {
	benchClusterThroughput(b, 3)
}

func benchClusterThroughput(b *testing.B, nodes int) {
	cl, clients := startBenchCluster(b, nodes, 60)
	defer cl.Close()
	exec := httpdrive.ClusterExecutor(clients)
	ctx := context.Background()
	gen := &workload.LoadGen{
		Seed:            7,
		Concurrency:     runtime.GOMAXPROCS(0),
		RegisteredShare: 0.5,
		Queries:         workload.ClusterQuerySuite(),
		Databases: []*relstr.Structure{
			workload.ClusterBenchDB(40),
			workload.ClusterBenchDB(60),
			workload.ClusterBenchDB(80),
		},
		ClusterNodes: nodes,
		PeerAddrs:    cl.URLs,
	}

	if warm := gen.Run(ctx, 64, exec); len(warm.FirstErrs) > 0 {
		b.Fatalf("warmup failed: %v", warm.FirstErrs[0])
	}
	b.ResetTimer()
	rep := gen.Run(ctx, b.N, exec)
	b.StopTimer()
	if len(rep.FirstErrs) > 0 {
		b.Fatalf("workload failed: %v", rep.FirstErrs[0])
	}
	b.ReportMetric(rep.PerSecond(), "req/s")
	b.ReportMetric(rep.KindPerSecond(workload.OpEval), "eval-req/s")
	b.ReportMetric(rep.P95[workload.OpEval].Seconds()*1e3, "eval-p95-ms")
}
