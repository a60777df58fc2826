package httpcluster

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/server"
	"cqapprox/internal/workload"
	"cqapprox/internal/workload/httpdrive"
)

// TestClusterSmoke is the CI multi-node smoke: three in-process nodes,
// a sharded registration (the fact relation partitioned, the
// dimensions replicated), scatter-gather answers and counts
// byte-identical to a single-node control, and the coordinator's
// /v1/stats cluster block accounting for it all.
func TestClusterSmoke(t *testing.T) {
	db := workload.ClusterBenchDB(60)
	threshold := len(db.Tuples("R1")) + len(db.Tuples("R2")) + 1
	if threshold >= len(db.Tuples("E")) {
		t.Fatalf("bench DB shape broken: E (%d facts) not above dimensions (%d)",
			len(db.Tuples("E")), threshold-1)
	}

	// The partition threshold sits between the dimension and fact
	// sizes, so E partitions and R1/R2 replicate.
	base := server.Config{}
	base.Cluster.ReplicateBelow = threshold
	cl := Start(3, base)
	defer cl.Close()
	clients := cl.Clients()
	ctx := context.Background()

	// Single-node control for byte-identity.
	eng := cqapprox.NewEngine()
	control := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	defer control.Close()
	cc := client.New(control.URL)

	wire := api.RegisterDBRequest{Name: "social", Database: httpdrive.WireDB(db)}
	if _, err := clients[0].RegisterDB(ctx, wire); err != nil {
		t.Fatalf("cluster register: %v", err)
	}
	if _, err := cc.RegisterDB(ctx, wire); err != nil {
		t.Fatalf("control register: %v", err)
	}

	for _, q := range workload.ClusterQuerySuite() {
		req := api.EvalRequest{Query: q.String(), Class: "TW1", DB: "social"}
		got, err := clients[0].Eval(ctx, req)
		if err != nil {
			t.Fatalf("%s: cluster eval: %v", q.Name, err)
		}
		want, err := cc.Eval(ctx, req)
		if err != nil {
			t.Fatalf("%s: control eval: %v", q.Name, err)
		}
		if !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Fatalf("%s: scatter answers diverge from single-node:\n  cluster %v\n  single  %v",
				q.Name, got.Answers, want.Answers)
		}
		countReq := api.CountRequest{EvalRequest: req}
		gotN, err := clients[0].Count(ctx, countReq)
		if err != nil {
			t.Fatalf("%s: cluster count: %v", q.Name, err)
		}
		wantN, err := cc.Count(ctx, countReq)
		if err != nil {
			t.Fatalf("%s: control count: %v", q.Name, err)
		}
		if gotN.Count != wantN.Count {
			t.Fatalf("%s: cluster count %d, single-node %d", q.Name, gotN.Count, wantN.Count)
		}
	}

	stats := cl.Servers[0].Stats()
	cs := stats.Cluster
	if cs == nil {
		t.Fatal("coordinator stats carry no cluster block")
	}
	if cs.ShardedDBs != 1 || cs.PartitionedRelations != 1 || cs.ReplicatedRelations != 2 {
		t.Fatalf("placement counters off: %+v", cs)
	}
	if cs.ScatterEvals < 4 {
		t.Fatalf("expected >= 4 scatter-gather evaluations, got %d", cs.ScatterEvals)
	}
	if cs.PeerErrors != 0 {
		t.Fatalf("peer errors on a healthy cluster: %d", cs.PeerErrors)
	}
	for i := 1; i < 3; i++ {
		ps := cl.Servers[i].Stats().Cluster
		if ps == nil || ps.PeerEvals == 0 || ps.PeerDBPushes == 0 {
			t.Fatalf("node %d served no peer traffic: %+v", i, ps)
		}
	}
}

// TestClusterExecutorRouting pins the routing rule: registered-database
// ops always hit node 0, stateless ops follow Op.Node.
func TestClusterExecutorRouting(t *testing.T) {
	base := server.Config{}
	base.Cluster.ReplicateBelow = 8
	cl := Start(2, base)
	defer cl.Close()
	exec := httpdrive.ClusterExecutor(cl.Clients())
	ctx := context.Background()

	db := workload.RandomDigraph(rand.New(rand.NewSource(1)), 20, 30)
	if err := exec(ctx, workload.Op{Kind: workload.OpRegisterDB, DB: db, DBName: "d", Node: 1}); err != nil {
		t.Fatalf("register via executor: %v", err)
	}
	q := workload.ClusterQuerySuite()[2]
	if err := exec(ctx, workload.Op{Kind: workload.OpEval, Query: q, Class: "TW1", DB: db, DBName: "d", Node: 1}); err != nil {
		t.Fatalf("by-name eval via executor: %v", err)
	}
	// Inline eval on node 1: never touches node 0's registry.
	if err := exec(ctx, workload.Op{Kind: workload.OpEval, Query: q, Class: "TW1", DB: db, Node: 1}); err != nil {
		t.Fatalf("inline eval via executor: %v", err)
	}
	if reqs := cl.Servers[1].Stats().Endpoints["/v1/eval"].Requests; reqs != 1 {
		t.Fatalf("node 1 served %d evals, want exactly the inline one", reqs)
	}
}
