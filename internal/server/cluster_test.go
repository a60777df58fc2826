package server

// End-to-end tests of the scatter-gather cluster mode: n Servers over
// n engines wired to each other through real HTTP, with a single-node
// control server asserting byte-identical responses.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/internal/cluster"
)

// startTestCluster spins n nodes, each with its own engine, wired to
// the others over real HTTP. The peer URLs must be known before the
// Servers exist, so each httptest server fronts a swappable handler
// that is pointed at its Server once all URLs are collected.
func startTestCluster(t *testing.T, n, replicateBelow int) ([]*Server, []*httptest.Server) {
	t.Helper()
	handlers := make([]atomic.Pointer[http.Handler], n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range tss {
		i := i
		tss[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := handlers[i].Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		}))
		t.Cleanup(tss[i].Close)
		urls[i] = tss[i].URL
	}
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = New(cqapprox.NewEngine(), Config{Cluster: cluster.Config{
			Peers:          urls,
			Self:           i,
			ReplicateBelow: replicateBelow,
		}})
		h := servers[i].Handler()
		handlers[i].Store(&h)
	}
	return servers, tss
}

// clusterTestDB builds the fact/dimension shape the placement splits:
// one large E (partitioned above the threshold) plus small R1/R2
// (replicated). Deterministic, so cluster and control agree.
func clusterTestDB(nE int) string {
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	b.WriteString(`{"E":[`)
	for i := 0; i < nE; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", rng.Intn(60), rng.Intn(60))
	}
	b.WriteString(`],"R1":[`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i*2, i)
	}
	b.WriteString(`],"R2":[`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i*2+1, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestClusterScatterEquivalence drives the same requests at a 3-node
// cluster and a single-node control and requires byte-identical
// response bodies across the whole routing trichotomy: scattered
// evaluations, local-routed (all-replicated) queries, fallbacks (two
// partitioned occurrences), booleans, exact and summed counts, and
// ranked top-k merges.
func TestClusterScatterEquivalence(t *testing.T) {
	servers, tss := startTestCluster(t, 3, 100)
	_, control := newTestServer(t, Config{})

	dbBody := `{"name":"social","database":` + clusterTestDB(600) + `}`
	for _, ts := range []*httptest.Server{tss[0], control} {
		if status, _, body := post(t, ts, "/v1/db", dbBody); status != 200 {
			t.Fatalf("register: status %d body %s", status, body)
		}
	}

	requests := []struct{ name, path, body string }{
		// One occurrence of partitioned E, dims replicated: scatters.
		{"scatter eval", "/v1/eval", `{"query":"Q(x,y) :- E(x,y), R1(x,u), R2(y,v)","exact":true,"db":"social"}`},
		// Class-prepared: the coordinator forwards its chosen
		// approximation, so shards evaluate the identical query.
		{"scatter eval class", "/v1/eval", `{"query":"Q(x,y) :- E(x,y), R1(x,u), R2(y,v)","class":"TW2","db":"social"}`},
		// Only replicated relations: answered from the local full copy.
		{"routed local", "/v1/eval", `{"query":"Q(x) :- R1(x,u), R2(y,x)","exact":true,"db":"social"}`},
		// Two partitioned occurrences: coordinator fallback.
		{"scatter fallback", "/v1/eval", `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"db":"social"}`},
		// Existence scatters and short-circuits on the first witness.
		{"scatter bool", "/v1/eval/bool", `{"query":"Q() :- E(x,y), R1(y,u)","exact":true,"db":"social"}`},
		{"scatter bool empty", "/v1/eval/bool", `{"query":"Q() :- E(x,x), R1(x,x)","exact":true,"db":"social"}`},
		// Exact count, summable: per-shard DP counts add.
		{"count sum", "/v1/count", `{"query":"Q(x,y) :- E(x,y), R1(x,u)","exact":true,"db":"social"}`},
		// Partitioned atom binds a non-head variable: not summable,
		// falls back — still identical.
		{"count fallback", "/v1/count", `{"query":"Q(x) :- E(x,y), R1(y,u)","exact":true,"db":"social"}`},
		// Ranked top-k: per-shard top-k under the shared order, merged.
		{"ranked merge", "/v1/eval", `{"query":"Q(x,y) :- E(x,y), R1(x,u), R2(y,v)","exact":true,"db":"social","order":["y"],"descending":true,"limit":5}`},
		{"limit only", "/v1/eval", `{"query":"Q(x,y) :- E(x,y), R1(x,u), R2(y,v)","exact":true,"db":"social","limit":3}`},
	}
	for _, req := range requests {
		t.Run(req.name, func(t *testing.T) {
			statusC, _, bodyC := post(t, tss[0], req.path, req.body)
			statusS, _, bodyS := post(t, control, req.path, req.body)
			if statusC != 200 || statusS != 200 {
				t.Fatalf("status cluster=%d single=%d (%s / %s)", statusC, statusS, bodyC, bodyS)
			}
			if bodyC != bodyS {
				t.Errorf("cluster response diverges from single-node:\n cluster: %s\n single:  %s", bodyC, bodyS)
			}
		})
	}

	st := servers[0].Stats()
	if st.Cluster == nil {
		t.Fatal("coordinator stats missing cluster block")
	}
	cs := st.Cluster
	if cs.ShardedDBs != 1 || cs.PartitionedRelations != 1 || cs.ReplicatedRelations != 2 {
		t.Errorf("placement stats = %d sharded / %d partitioned / %d replicated, want 1/1/2",
			cs.ShardedDBs, cs.PartitionedRelations, cs.ReplicatedRelations)
	}
	// scatter eval ×2, bool ×2, count sum, ranked ×2 = 7 scatters;
	// routed local ×1; fallbacks: 2-occurrence eval + non-summable count.
	if cs.ScatterEvals != 7 {
		t.Errorf("scatter_evals = %d, want 7", cs.ScatterEvals)
	}
	if cs.RoutedLocal != 1 {
		t.Errorf("routed_local = %d, want 1", cs.RoutedLocal)
	}
	if cs.ScatterFallbacks != 2 {
		t.Errorf("scatter_fallbacks = %d, want 2", cs.ScatterFallbacks)
	}
	if cs.CountSums != 1 {
		t.Errorf("count_sums = %d, want 1", cs.CountSums)
	}
	if cs.PeerErrors != 0 {
		t.Errorf("peer_errors = %d, want 0", cs.PeerErrors)
	}
	if cs.Fanout.Requests == 0 {
		t.Error("fanout histogram recorded no samples")
	}
	// The peer side of node 1: it served shard pushes and scatter legs.
	ps := servers[1].Stats().Cluster
	if ps == nil || ps.PeerDBPushes == 0 || ps.PeerEvals == 0 {
		t.Errorf("peer stats on node 1 = %+v, want nonzero peer_db_pushes and peer_evals", ps)
	}
}

// TestClusterDeltaRouting is the delta-routing regression: a delta
// touching one partitioned tuple must advance exactly one node's shard
// slice (the owner's), while a replicated-relation delta fans to all.
func TestClusterDeltaRouting(t *testing.T) {
	servers, tss := startTestCluster(t, 3, 100)
	if status, _, body := post(t, tss[0], "/v1/db", `{"name":"d","database":`+clusterTestDB(400)+`}`); status != 200 {
		t.Fatalf("register: %s", body)
	}

	shardVersions := func() []uint64 {
		out := make([]uint64, len(servers))
		for i, s := range servers {
			d, ok := s.eng.DB(shardDBName("d"))
			if !ok {
				t.Fatalf("node %d has no shard slice", i)
			}
			out[i] = d.Version()
		}
		return out
	}

	before := shardVersions()
	status, _, body := post(t, tss[0], "/v1/db", `{"name":"d","delta":{"insert":{"E":[[1000,1001]]}}}`)
	if status != 200 || !strings.Contains(body, `"applied":true`) {
		t.Fatalf("delta: status %d body %s", status, body)
	}
	after := shardVersions()
	changed := 0
	for i := range after {
		if after[i] != before[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Errorf("partitioned single-tuple delta advanced %d shard slices, want exactly 1 (versions %v -> %v)", changed, before, after)
	}

	// A replicated-relation delta reaches every shard slice.
	before = after
	if status, _, body := post(t, tss[0], "/v1/db", `{"name":"d","delta":{"insert":{"R1":[[999,999]]}}}`); status != 200 {
		t.Fatalf("replicated delta: %s", body)
	}
	after = shardVersions()
	for i := range after {
		if after[i] == before[i] {
			t.Errorf("replicated delta did not advance node %d's shard slice", i)
		}
	}

	// The routed deltas keep scattered answers identical to the full
	// copy: evaluate on the cluster and against the coordinator's own
	// full registration via an inline control server sharing no state.
	if cs := servers[0].Stats().Cluster; cs.DeltaForwards == 0 {
		t.Errorf("delta_forwards = 0 after routed deltas")
	}
}

// TestClusterPeerFailure covers the two failure surfaces: a sharded
// registration with a dead peer still answers 200 and keeps serving
// from the full local copy (no placement recorded, peer_errors bumped),
// and a delta forward against a recorded placement surfaces 502
// peer_unavailable.
func TestClusterPeerFailure(t *testing.T) {
	servers, tss := startTestCluster(t, 3, 100)
	if status, _, body := post(t, tss[0], "/v1/db", `{"name":"d","database":`+clusterTestDB(400)+`}`); status != 200 {
		t.Fatalf("register: %s", body)
	}

	// Kill node 2 and forward a replicated-relation delta (fans to all
	// shards, so the dead peer is necessarily touched).
	tss[2].Close()
	status, _, body := post(t, tss[0], "/v1/db", `{"name":"d","delta":{"insert":{"R1":[[999,999]]}}}`)
	if status != http.StatusBadGateway || !strings.Contains(body, "peer_unavailable") {
		t.Fatalf("delta with dead peer: status %d body %s, want 502 peer_unavailable", status, body)
	}

	// Re-registering with the dead peer: 200, served locally, placement
	// dropped so nothing scatters into the dead node.
	if status, _, body := post(t, tss[0], "/v1/db", `{"name":"d2","database":`+clusterTestDB(400)+`}`); status != 200 {
		t.Fatalf("register with dead peer: status %d body %s, want 200", status, body)
	}
	if pl := servers[0].cluster.placementOf("d2"); pl != nil {
		t.Error("placement recorded despite failed shard push")
	}
	status, _, _ = post(t, tss[0], "/v1/eval", `{"query":"Q(x,y) :- E(x,y), R1(x,u)","exact":true,"db":"d2"}`)
	if status != 200 {
		t.Errorf("eval of unsharded registration: status %d, want 200 from the local full copy", status)
	}
	if cs := servers[0].Stats().Cluster; cs.PeerErrors == 0 {
		t.Error("peer_errors = 0 after dead-peer register and delta")
	}
}

// TestClusterNULNamesRejected: NUL namespaces the internal shard
// slices, so client-facing surfaces must reject it everywhere a
// database is named.
func TestClusterNULNamesRejected(t *testing.T) {
	_, tss := startTestCluster(t, 2, 100)
	cases := []struct{ name, path, body string }{
		{"register", "/v1/db", `{"name":"a\u0000b","database":{"E":[[1,2]]}}`},
		{"eval", "/v1/eval", `{"query":"Q(x) :- E(x,y)","exact":true,"db":"a\u0000b"}`},
		{"subscribe", "/v1/subscribe", `{"query":"Q(x) :- E(x,y)","exact":true,"db":"a\u0000b"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, tss[0], tc.path, tc.body)
			if status != http.StatusBadRequest || !strings.Contains(body, "NUL") {
				t.Errorf("status %d body %s, want 400 mentioning NUL", status, body)
			}
		})
	}
}

// TestSingleNodeStatsUnchanged pins the compatibility contract: a
// server without a cluster config serves no cluster stats block and no
// peer endpoints.
func TestSingleNodeStatsUnchanged(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if s.cluster != nil {
		t.Fatal("single-node server built a cluster control plane")
	}
	if st := s.Stats(); st.Cluster != nil {
		t.Error("single-node stats carry a cluster block")
	}
	status, _, _ := post(t, ts, "/v1/peer/eval", `{}`)
	if status != http.StatusNotFound {
		t.Errorf("peer endpoint on single-node server: status %d, want 404", status)
	}
}

// TestClusterRoutingCounters pins, per routing arm, which cluster
// counters one request moves on the coordinator, and that the response
// matches the single-node control: byte-identical bodies where the
// response is deterministic, the answers/result/count fields for traced
// requests (a trace carries timings), and a (1±ε) bound against the
// control's exact count for sampled estimates.
func TestClusterRoutingCounters(t *testing.T) {
	servers, tss := startTestCluster(t, 3, 100)
	_, control := newTestServer(t, Config{})
	dbBody := `{"name":"social","database":` + clusterTestDB(600) + `}`
	for _, ts := range []*httptest.Server{tss[0], control} {
		if status, _, body := post(t, ts, "/v1/db", dbBody); status != 200 {
			t.Fatalf("register: status %d body %s", status, body)
		}
	}

	const (
		star   = `"query":"Q(x,y) :- E(x,y), R1(x,u), R2(y,v)","exact":true,"db":"social"`
		sum    = `"query":"Q(x,y) :- E(x,y), R1(x,u)","exact":true,"db":"social"`
		sample = `"query":"Q(x,z,w) :- R1(x,y), R2(y,z), E(z,w)","exact":true,"db":"social"`
	)
	type deltas struct{ local, fallbacks, scatters, sums uint64 }
	const (
		exactBody = iota // byte-identical to the control
		traced           // answers / result / count equal the control's
		estimate         // count within (1±ε) of the control's exact count
	)
	rows := []struct {
		name, path, body string
		control          string // control request body when it differs
		cmp              int
		want             deltas
	}{
		{"scattered eval", "/v1/eval", `{` + star + `}`, "", exactBody, deltas{scatters: 1}},
		{"scattered bool", "/v1/eval/bool", `{"query":"Q() :- E(x,y), R1(y,u)","exact":true,"db":"social"}`, "", exactBody, deltas{scatters: 1}},
		{"ranked eval", "/v1/eval", `{` + star + `,"order":["y"],"descending":true,"limit":5}`, "", exactBody, deltas{scatters: 1}},
		{"summable count", "/v1/count", `{` + sum + `}`, "", exactBody, deltas{scatters: 1, sums: 1}},
		{"seeded estimate count", "/v1/count", `{` + sample + `,"estimate":true,"epsilon":0.1,"seed":11}`, `{` + sample + `}`, estimate, deltas{scatters: 1, sums: 1}},
		{"non-summable count", "/v1/count", `{"query":"Q(x) :- E(x,y), R1(y,u)","exact":true,"db":"social"}`, "", exactBody, deltas{fallbacks: 1}},
		{"two-occurrence fallback", "/v1/eval", `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"db":"social"}`, "", exactBody, deltas{fallbacks: 1}},
		{"all-replicated local", "/v1/eval", `{"query":"Q(x) :- R1(x,u), R2(y,x)","exact":true,"db":"social"}`, "", exactBody, deltas{local: 1}},
		{"traced eval", "/v1/eval", `{` + star + `,"trace":true}`, "", traced, deltas{fallbacks: 1}},
		{"traced bool", "/v1/eval/bool", `{"query":"Q() :- E(x,y), R1(y,u)","exact":true,"db":"social","trace":true}`, "", traced, deltas{fallbacks: 1}},
		{"traced count", "/v1/count", `{` + sum + `,"trace":true}`, "", traced, deltas{fallbacks: 1}},
		{"stream", "/v1/stream", `{` + star + `}`, "", exactBody, deltas{fallbacks: 1}},
		{"inline database", "/v1/eval", `{"query":"Q(x,y) :- E(x,y), R1(x,u)","exact":true,"database":{"E":[[1,2],[2,3]],"R1":[[1,9]]}}`, "", exactBody, deltas{}},
	}
	snap := func() deltas {
		cs := servers[0].Stats().Cluster
		return deltas{cs.RoutedLocal, cs.ScatterFallbacks, cs.ScatterEvals, cs.CountSums}
	}
	type fields struct {
		Answers json.RawMessage `json:"answers"`
		Result  *bool           `json:"result"`
		Count   *uint64         `json:"count"`
	}
	decode := func(t *testing.T, body string) fields {
		t.Helper()
		var f fields
		if err := json.Unmarshal([]byte(body), &f); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return f
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := snap()
			statusC, _, bodyC := post(t, tss[0], row.path, row.body)
			after := snap()
			controlBody := row.body
			if row.control != "" {
				controlBody = row.control
			}
			statusS, _, bodyS := post(t, control, row.path, controlBody)
			if statusC != 200 || statusS != 200 {
				t.Fatalf("status cluster=%d single=%d (%s / %s)", statusC, statusS, bodyC, bodyS)
			}
			got := deltas{after.local - before.local, after.fallbacks - before.fallbacks,
				after.scatters - before.scatters, after.sums - before.sums}
			if got != row.want {
				t.Errorf("counter deltas (routed_local, scatter_fallbacks, scatter_evals, count_sums) = %+v, want %+v", got, row.want)
			}
			switch row.cmp {
			case exactBody:
				if bodyC != bodyS {
					t.Errorf("cluster response diverges from single-node:\n cluster: %s\n single:  %s", bodyC, bodyS)
				}
			case traced:
				c, s := decode(t, bodyC), decode(t, bodyS)
				if string(c.Answers) != string(s.Answers) || !reflect.DeepEqual(c.Result, s.Result) || !reflect.DeepEqual(c.Count, s.Count) {
					t.Errorf("traced cluster response diverges from single-node:\n cluster: %s\n single:  %s", bodyC, bodyS)
				}
			case estimate:
				var c api.CountResponse
				if err := json.Unmarshal([]byte(bodyC), &c); err != nil {
					t.Fatal(err)
				}
				exact := float64(*decode(t, bodyS).Count)
				if !c.Estimated || c.Mode != "estimate-sum" {
					t.Errorf("estimate response %s: want a summed estimate", bodyC)
				}
				if c.Estimate < 0.9*exact || c.Estimate > 1.1*exact {
					t.Errorf("estimate %.1f outside (1±0.1) of the exact count %.0f", c.Estimate, exact)
				}
			}
		})
	}
}

// A peer leg with an unknown mode is refused before admission and
// prepare: 400, and the forwarded query never reaches the cache.
func TestClusterPeerEvalBadModeSkipsPrepare(t *testing.T) {
	servers, tss := startTestCluster(t, 2, 100)
	if status, _, body := post(t, tss[0], "/v1/db", `{"name":"d","database":`+clusterTestDB(200)+`}`); status != 200 {
		t.Fatalf("register: %s", body)
	}
	before := servers[1].eng.CacheStats()
	status, _, body := post(t, tss[1], "/v1/peer/eval", `{"query":"Q(x,y) :- E(x,y)","exact":true,"db":"d","mode":"nope"}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "mode must be") {
		t.Fatalf("status %d body %s, want 400 naming the mode", status, body)
	}
	if after := servers[1].eng.CacheStats(); after != before {
		t.Errorf("cache stats moved %+v -> %+v: the peer prepared a rejected leg", before, after)
	}
}
