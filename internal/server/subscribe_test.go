package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cqapprox/api"
	"cqapprox/client"
)

// subConn is one open /v1/subscribe connection under test.
type subConn struct {
	resp *http.Response
	dec  *json.Decoder
}

// subscribe opens a subscription and fails the test on a non-200
// handshake. The caller reads frames with frame().
func subscribe(t *testing.T, ts *httptest.Server, body string) *subConn {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var e api.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("subscribe: status %d, error %+v", resp.StatusCode, e.Error)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return &subConn{resp: resp, dec: json.NewDecoder(resp.Body)}
}

// frame reads the next NDJSON diff frame, failing the test if none
// arrives within 10s.
func (c *subConn) frame(t *testing.T) api.DiffFrame {
	t.Helper()
	type res struct {
		f   api.DiffFrame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		var f api.DiffFrame
		err := c.dec.Decode(&f)
		ch <- res{f, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("read frame: %v", r.err)
		}
		return r.f
	case <-time.After(10 * time.Second):
		t.Fatal("no frame within 10s")
	}
	panic("unreachable")
}

func registerDB(t *testing.T, ts *httptest.Server, name, database string) uint64 {
	t.Helper()
	status, _, body := post(t, ts, "/v1/db", `{"name":"`+name+`","database":`+database+`}`)
	if status != 200 {
		t.Fatalf("register %s: status %d: %s", name, status, body)
	}
	var resp api.RegisterDBResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Version
}

func applyDelta(t *testing.T, ts *httptest.Server, name, delta string) uint64 {
	t.Helper()
	status, _, body := post(t, ts, "/v1/db", `{"name":"`+name+`","delta":`+delta+`}`)
	if status != 200 {
		t.Fatalf("delta on %s: status %d: %s", name, status, body)
	}
	var resp api.RegisterDBResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Applied || !resp.Replaced {
		t.Fatalf("delta response = %+v, want applied and replaced", resp)
	}
	return resp.Version
}

const subBody = `{"query":"Q(x) :- E(x,y)","exact":true,"db":"g"}`

// The core subscription flow: init frame carries the full answer set,
// each delta applied via POST /v1/db pushes one exact diff frame, and
// the stats counters account for all of it.
func TestSubscribeUpdateNotify(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	c := subscribe(t, ts, subBody)
	init := c.frame(t)
	if !init.Init || init.Resync || init.Error != nil {
		t.Fatalf("init frame = %+v", init)
	}
	if fmt.Sprint(init.Added) != "[[1]]" || len(init.Removed) != 0 {
		t.Fatalf("init frame carries %v / %v, want [[1]] / []", init.Added, init.Removed)
	}

	v1 := applyDelta(t, ts, "g", `{"insert":{"E":[[2,3]]}}`)
	f := c.frame(t)
	if f.Fallback {
		t.Fatalf("delta propagated via fallback: %s", f.Reason)
	}
	if f.Version != v1 || fmt.Sprint(f.Added) != "[[2]]" || len(f.Removed) != 0 {
		t.Fatalf("insert frame = %+v, want version %d added [[2]]", f, v1)
	}

	v2 := applyDelta(t, ts, "g", `{"delete":{"E":[[1,2]]}}`)
	f = c.frame(t)
	if f.Version != v2 || len(f.Added) != 0 || fmt.Sprint(f.Removed) != "[[1]]" {
		t.Fatalf("delete frame = %+v, want version %d removed [[1]]", f, v2)
	}

	st := s.Stats()
	sub := st.Subscriptions
	if sub.Active != 1 || sub.Subscriptions != 1 || sub.Notifications != 3 ||
		sub.Resyncs != 0 || sub.SlowConsumerDrops != 0 {
		t.Fatalf("subscription stats = %+v", sub)
	}
	if st.Cache.IncrementalEvals < 2 {
		t.Fatalf("incremental_evals = %d, want >= 2", st.Cache.IncrementalEvals)
	}
	if got := st.Endpoints["/v1/subscribe"]; got.InFlight != 1 || got.Requests != 1 {
		t.Fatalf("endpoint stats = %+v", got)
	}

	c.resp.Body.Close()
	waitFor(t, 10*time.Second, func() bool {
		return s.Stats().Subscriptions.Active == 0
	})
}

// Replacing the registered database wholesale (POST /v1/db with a
// database) forces a resynchronising re-evaluation: the frame reports
// the fallback but its diff is still exact.
func TestSubscribeReplacementFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	c := subscribe(t, ts, subBody)
	c.frame(t) // init

	v := registerDB(t, ts, "g", `{"E":[[5,6]]}`)
	f := c.frame(t)
	if !f.Fallback || f.Reason == "" {
		t.Fatalf("replacement frame = %+v, want a reported fallback", f)
	}
	if f.Version != v || fmt.Sprint(f.Added) != "[[5]]" || fmt.Sprint(f.Removed) != "[[1]]" {
		t.Fatalf("replacement frame = %+v, want version %d added [[5]] removed [[1]]", f, v)
	}
}

// With a coalesce window, an insert/delete burst nets out into a
// single frame — here to an empty one at the burst's final version.
func TestSubscribeCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceWindow: 300 * time.Millisecond})
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	c := subscribe(t, ts, subBody)
	c.frame(t) // init

	applyDelta(t, ts, "g", `{"insert":{"E":[[7,8]]}}`)
	v2 := applyDelta(t, ts, "g", `{"delete":{"E":[[7,8]]}}`)
	f := c.frame(t)
	if f.Version != v2 || len(f.Added) != 0 || len(f.Removed) != 0 {
		t.Fatalf("coalesced frame = %+v, want empty diff at version %d", f, v2)
	}
	if n := s.Stats().Subscriptions.Notifications; n != 2 {
		t.Fatalf("notifications = %d, want 2 (init + one coalesced frame)", n)
	}
}

// park wires the onSubscribeFrame seam to block the subscriber loop
// after the init frame until release is closed, so tests can overflow
// its queue deterministically.
func park(s *Server) (parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	s.onSubscribeFrame = func(n int) {
		if n == 1 {
			close(parked)
			<-release
		}
	}
	return parked, release
}

// Queue overflow under the default resync policy: the backlog is
// dropped and one resync frame replaces the client's state with the
// full answer set at the current version.
func TestSubscribeSlowConsumerResync(t *testing.T) {
	s, ts := newTestServer(t, Config{SubscriberQueue: -1}) // queue depth 1
	parked, release := park(s)
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	c := subscribe(t, ts, subBody)
	c.frame(t) // init
	<-parked

	applyDelta(t, ts, "g", `{"insert":{"E":[[3,4]]}}`) // fills the queue
	applyDelta(t, ts, "g", `{"insert":{"E":[[4,5]]}}`) // overflows
	v := applyDelta(t, ts, "g", `{"insert":{"E":[[5,6]]}}`)
	close(release)

	f := c.frame(t)
	if !f.Resync || f.Version != v {
		t.Fatalf("frame = %+v, want a resync at version %d", f, v)
	}
	if fmt.Sprint(f.Added) != "[[1] [3] [4] [5]]" || len(f.Removed) != 0 {
		t.Fatalf("resync frame carries %v / %v, want the full set", f.Added, f.Removed)
	}
	if n := s.Stats().Subscriptions.Resyncs; n != 1 {
		t.Fatalf("resyncs = %d, want 1", n)
	}
}

// Queue overflow under the disconnect policy: a terminal frame with
// the stable error code slow_consumer, then EOF.
func TestSubscribeSlowConsumerDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{SubscriberQueue: -1, SlowConsumerPolicy: SlowConsumerDisconnect})
	parked, release := park(s)
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	c := subscribe(t, ts, subBody)
	c.frame(t) // init
	<-parked

	applyDelta(t, ts, "g", `{"insert":{"E":[[3,4]]}}`) // fills the queue
	applyDelta(t, ts, "g", `{"insert":{"E":[[4,5]]}}`) // overflows: kick
	close(release)

	// The queued update may still be delivered before the terminal
	// frame; the terminal frame must come, carrying the stable code.
	var f api.DiffFrame
	for i := 0; i < 3; i++ {
		f = c.frame(t)
		if f.Error != nil {
			break
		}
	}
	if f.Error == nil || f.Error.Code != api.CodeSlowConsumer {
		t.Fatalf("terminal frame = %+v, want error code %q", f, api.CodeSlowConsumer)
	}
	var after api.DiffFrame
	if err := c.dec.Decode(&after); err == nil {
		t.Fatalf("frame after terminal: %+v", after)
	}
	st := s.Stats()
	if st.Subscriptions.SlowConsumerDrops != 1 {
		t.Fatalf("slow_consumer_drops = %d, want 1", st.Subscriptions.SlowConsumerDrops)
	}
	if st.Endpoints["/v1/subscribe"].Errors != 1 {
		t.Fatalf("endpoint errors = %+v, want 1", st.Endpoints["/v1/subscribe"])
	}
}

// Validation errors on /v1/subscribe and the /v1/db delta form reuse
// the shared taxonomy: bad_request for shape errors, unknown_db for
// absent registrations.
func TestSubscribeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)
	steps := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
	}{
		{"subscribe without db", "/v1/subscribe",
			`{"query":"Q(x) :- E(x,y)","exact":true}`, 400, api.CodeBadRequest},
		{"subscribe unknown db", "/v1/subscribe",
			`{"query":"Q(x) :- E(x,y)","exact":true,"db":"nope"}`, 404, api.CodeUnknownDB},
		{"subscribe bad query", "/v1/subscribe",
			`{"query":"Q(x :-","exact":true,"db":"g"}`, 400, api.CodeParseError},
		{"db with both database and delta", "/v1/db",
			`{"name":"g","database":{"E":[[1,2]]},"delta":{"insert":{"E":[[3,4]]}}}`, 400, api.CodeBadRequest},
		{"delta on unknown db", "/v1/db",
			`{"name":"nope","delta":{"insert":{"E":[[3,4]]}}}`, 404, api.CodeUnknownDB},
		{"delta with empty relation name", "/v1/db",
			`{"name":"g","delta":{"insert":{"":[[3,4]]}}}`, 400, api.CodeBadRequest},
	}
	for _, tc := range steps {
		status, _, body := post(t, ts, tc.path, tc.body)
		var e api.ErrorResponse
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatalf("%s: non-JSON error body %q", tc.name, body)
		}
		if status != tc.wantStatus || e.Error.Code != tc.wantCode {
			t.Fatalf("%s: status %d code %q, want %d %q (%s)",
				tc.name, status, e.Error.Code, tc.wantStatus, tc.wantCode, e.Error.Message)
		}
	}
}

// Subscriptions tear down cleanly on both client disconnect and server
// drain: the active gauge returns to zero and no goroutines leak
// (mirrors TestStreamClientDisconnect).
func TestSubscribeTeardownNoLeak(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	// Dedicated client: closing its idle connections later makes the
	// goroutine baseline comparison exact.
	tr := &http.Transport{}
	httpc := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	const n = 4
	conns := make([]*subConn, n)
	for i := range conns {
		resp, err := httpc.Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(subBody))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("subscribe %d: status %d", i, resp.StatusCode)
		}
		conns[i] = &subConn{resp: resp, dec: json.NewDecoder(resp.Body)}
		conns[i].frame(t) // init
	}
	applyDelta(t, ts, "g", `{"insert":{"E":[[2,3]]}}`)
	for _, c := range conns {
		if f := c.frame(t); fmt.Sprint(f.Added) != "[[2]]" {
			t.Fatalf("live frame = %+v", f)
		}
	}

	// Half the subscribers disconnect mid-stream ...
	conns[0].resp.Body.Close()
	conns[1].resp.Body.Close()
	waitFor(t, 10*time.Second, func() bool {
		return s.Stats().Subscriptions.Active == 2
	})
	// ... the rest are ended by a server drain, as on shutdown.
	s.Drain()
	waitFor(t, 10*time.Second, func() bool {
		st := s.Stats()
		return st.Subscriptions.Active == 0 && st.Endpoints["/v1/subscribe"].InFlight == 0
	})
	conns[2].resp.Body.Close()
	conns[3].resp.Body.Close()

	tr.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// The typed client round-trips a subscription: init frame, a pushed
// diff after a delta, clean break, and — after a Drain — a clean end.
func TestClientSubscribe(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx := context.Background()
	c := client.New(ts.URL)
	if _, err := c.RegisterDB(ctx, api.RegisterDBRequest{
		Name: "g", Database: api.Database{"E": [][]int{{1, 2}}},
	}); err != nil {
		t.Fatal(err)
	}

	frames := make(chan api.DiffFrame)
	errc := make(chan error, 1)
	go func() {
		seq, errf := c.Subscribe(ctx, api.SubscribeRequest{
			Query: "Q(x) :- E(x,y)", Exact: true, DB: "g",
		})
		for f := range seq {
			frames <- f
		}
		errc <- errf()
	}()

	init := <-frames
	if !init.Init || fmt.Sprint(init.Added) != "[[1]]" {
		t.Fatalf("init frame = %+v", init)
	}
	if _, err := c.RegisterDB(ctx, api.RegisterDBRequest{
		Name: "g", Delta: &api.DeltaChange{Insert: api.Database{"E": [][]int{{2, 3}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if f := <-frames; fmt.Sprint(f.Added) != "[[2]]" || len(f.Removed) != 0 {
		t.Fatalf("diff frame = %+v", f)
	}

	s.Drain() // server shutdown path: the stream ends cleanly
	if err := <-errc; err != nil {
		t.Fatalf("errf after drain = %v", err)
	}
}

// Concurrent writers hammer /v1/db while several subscribers replay
// the diff stream; every subscriber's replayed state must land exactly
// on the final answer set. Run under -race in CI, this doubles as the
// update/notify data-race check.
func TestSubscribeConcurrentUpdates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)

	const nSubs, nWriters, nUpdates = 4, 3, 15
	var wg sync.WaitGroup

	type replay struct {
		set  map[string]bool
		errs []string
	}
	results := make([]replay, nSubs)
	// The subscriber goroutines stop once their replayed state contains
	// the sentinel answer [9999]: the sentinel update is posted after
	// every writer finished, so the frame delivering it is the last.
	const sentinel = "[9999]"
	for i := 0; i < nSubs; i++ {
		c := subscribe(t, ts, subBody)
		wg.Add(1)
		go func(c *subConn, r *replay) {
			defer wg.Done()
			r.set = map[string]bool{}
			for {
				var f api.DiffFrame
				if err := c.dec.Decode(&f); err != nil {
					r.errs = append(r.errs, "stream ended: "+err.Error())
					return
				}
				if f.Error != nil {
					r.errs = append(r.errs, "terminal error: "+f.Error.Code)
					return
				}
				if f.Init || f.Resync {
					r.set = map[string]bool{}
					for _, a := range f.Added {
						r.set[fmt.Sprint(a)] = true
					}
				} else {
					for _, x := range f.Removed {
						k := fmt.Sprint(x)
						if !r.set[k] {
							r.errs = append(r.errs, fmt.Sprintf("removed absent %s at v%d", k, f.Version))
						}
						delete(r.set, k)
					}
					for _, a := range f.Added {
						k := fmt.Sprint(a)
						if r.set[k] {
							r.errs = append(r.errs, fmt.Sprintf("added present %s at v%d", k, f.Version))
						}
						r.set[k] = true
					}
				}
				if r.set[sentinel] {
					return
				}
			}
		}(c, &results[i])
	}

	var writers sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < nUpdates; i++ {
				a := 1000*(w+1) + i
				applyDelta(t, ts, "g", fmt.Sprintf(`{"insert":{"E":[[%d,%d]]}}`, a, a+1))
			}
		}(w)
	}
	writers.Wait()
	applyDelta(t, ts, "g", `{"insert":{"E":[[9999,10000]]}}`)

	// The final answer set, straight from the registered database.
	status, _, body := post(t, ts, "/v1/eval",
		`{"query":"Q(x) :- E(x,y)","exact":true,"db":"g"}`)
	if status != 200 {
		t.Fatalf("final eval: status %d: %s", status, body)
	}
	var eval api.EvalResponse
	if err := json.Unmarshal([]byte(body), &eval); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, a := range eval.Answers {
		want[fmt.Sprint(a)] = true
	}

	wg.Wait()
	for i, r := range results {
		if len(r.errs) > 0 {
			t.Fatalf("subscriber %d: %v", i, r.errs)
		}
		if len(r.set) != len(want) {
			t.Fatalf("subscriber %d replayed %d answers, want %d", i, len(r.set), len(want))
		}
		for k := range want {
			if !r.set[k] {
				t.Fatalf("subscriber %d replay misses %s", i, k)
			}
		}
	}
}

// A subscription to an unknown database is refused before the
// approximation search runs: 404, and no prepare reaches the cache.
func TestSubscribeUnknownDBSkipsPrepare(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.eng.CacheStats()
	status, _, body := post(t, ts, "/v1/subscribe", `{"query":"Q(x) :- E(x,y), E(y,z), E(z,x)","class":"TW1","db":"nosuch"}`)
	if status != http.StatusNotFound || !strings.Contains(body, api.CodeUnknownDB) {
		t.Fatalf("status %d body %s, want 404 unknown_db", status, body)
	}
	if after := s.eng.CacheStats(); after != before {
		t.Errorf("cache stats moved %+v -> %+v: the search ran for an unknown db", before, after)
	}
}
