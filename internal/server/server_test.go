package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cqapprox"
	"cqapprox/api"
)

// newTestServer spins an httptest server over a fresh engine and
// returns both plus the Server for white-box access (hooks, Stats).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cqapprox.NewEngine(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, strings.TrimRight(string(b), "\n")
}

// The key /v1/prepare returns for the TW(1) triangle below: the
// engine's canonical cache key (stable across alpha-equivalent
// queries), base64-encoded.
const triangleTW1Key = "Y3xuMztkMCw7RSgyKTowLDJ8MSwwfDIsMQBjb3JlLnR3Q2xhc3M6VFcoMSkAMTAvMS8w"

// Golden-JSON coverage of every endpoint and every reachable error
// code. Bodies are compared byte-for-byte: responses are part of the
// wire contract, and all of them are deterministic (canonical variable
// renaming at prepare time, sorted answer sets, fixed error strings).
func TestEndpointGolden(t *testing.T) {
	c11 := "Q() :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7), E(x7,x8), E(x8,x9), E(x9,x10), E(x10,x0)"
	c9 := "Q() :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x5), E(x5,x6), E(x6,x7), E(x7,x8), E(x8,x0)"
	steps := []struct {
		name       string
		path, body string
		wantStatus int
		wantBody   string
	}{
		{
			name:       "prepare miss",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x) :- E(x,y), E(y,z), E(z,x)","class":"TW1"}`,
			wantStatus: 200,
			wantBody:   `{"key":"` + triangleTW1Key + `","query":"Q(x) :- E(x,y), E(y,z), E(z,x)","minimized":"Q(v0) :- E(v0,v1), E(v1,v2), E(v2,v0)","class":"TW(1)","approximation":"Q_approx(x0) :- E(x0,x1), E(x1,x0), E(x1,x1)","approximations":["Q_approx(x0) :- E(x0,x1), E(x1,x0), E(x1,x1)"],"plan":"yannakakis","candidates_inspected":4,"cache_hit":false}`,
		},
		{
			name:       "prepare hit of an alpha-variant",
			path:       "/v1/prepare",
			body:       `{"query":"P(a) :- E(c,a), E(a,b), E(b,c)","class":"TW1"}`,
			wantStatus: 200,
			wantBody:   `{"key":"` + triangleTW1Key + `","query":"P(a) :- E(c,a), E(a,b), E(b,c)","minimized":"P(v0) :- E(v0,v1), E(v1,v2), E(v2,v0)","class":"TW(1)","approximation":"P_approx(x0) :- E(x0,x1), E(x1,x0), E(x1,x1)","approximations":["P_approx(x0) :- E(x0,x1), E(x1,x0), E(x1,x1)"],"plan":"yannakakis","candidates_inspected":0,"cache_hit":true}`,
		},
		{
			name:       "prepare exact",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true}`,
			wantStatus: 200,
			wantBody:   `{"key":"Y3xuMztkMCwxLDtFKDIpOjAsMnwyLDEAZXhhY3QAMTAvMS8w","query":"Q(x,z) :- E(x,y), E(y,z)","minimized":"Q(v0,v1) :- E(v0,v2), E(v2,v1)","plan":"yannakakis","candidates_inspected":0,"cache_hit":false}`,
		},
		{
			name:       "eval inline",
			path:       "/v1/eval",
			body:       `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3],[3,4]]}}`,
			wantStatus: 200,
			wantBody:   `{"answers":[[1,3],[2,4]],"count":2}`,
		},
		{
			name:       "eval by key",
			path:       "/v1/eval",
			body:       `{"key":"` + triangleTW1Key + `","database":{"E":[[1,2],[2,1],[2,2]]}}`,
			wantStatus: 200,
			wantBody:   `{"answers":[[1],[2]],"count":2}`,
		},
		{
			name:       "eval empty answers",
			path:       "/v1/eval",
			body:       `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{}}`,
			wantStatus: 200,
			wantBody:   `{"answers":[],"count":0}`,
		},
		{
			name:       "eval/bool",
			path:       "/v1/eval/bool",
			body:       `{"query":"Q() :- E(x,x)","exact":true,"database":{"E":[[1,2],[2,2]]}}`,
			wantStatus: 200,
			wantBody:   `{"result":true}`,
		},
		{
			name:       "stream NDJSON",
			path:       "/v1/stream",
			body:       `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3],[3,4]]}}`,
			wantStatus: 200,
			wantBody:   "[1,3]\n[2,4]",
		},
		{
			name:       "unknown key: 404 unknown_key",
			path:       "/v1/eval",
			body:       `{"key":"bm90LWEta2V5","database":{}}`,
			wantStatus: 404,
			wantBody:   `{"error":{"code":"unknown_key","message":"no prepared query under this key (evicted or never prepared here); re-prepare"}}`,
		},
		{
			name:       "malformed key: 400 bad_request",
			path:       "/v1/eval",
			body:       `{"key":"%%%","database":{}}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"malformed key: illegal base64 data at input byte 0"}}`,
		},
		{
			name:       "syntax error: 400 parse_error with position",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x) :- E(x,","class":"TW1"}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"parse_error","message":"cq: parse error at 1:13 (offset 12): expected identifier","line":1,"col":13}}`,
		},
		{
			name:       "unknown class: 400 bad_request",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x) :- E(x,y)","class":"TW9"}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"unknown class \"TW9\" (want TW1, TW2, TW3, AC, HTW1, HTW2, GHTW1, GHTW2)"}}`,
		},
		{
			name:       "missing class: 400 bad_request",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x) :- E(x,y)"}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"class required (or set exact for the unapproximated query)"}}`,
		},
		{
			name:       "class plus exact: 400 bad_request",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x) :- E(x,y)","class":"TW1","exact":true}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"class and exact are mutually exclusive"}}`,
		},
		{
			name:       "options with exact: 400 bad_request",
			path:       "/v1/prepare",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"options":{"max_vars":20}}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"options apply to class preparations only; exact uses the server defaults"}}`,
		},
		{
			name:       "partial options inherit defaults for the rest",
			path:       "/v1/prepare",
			body:       `{"query":"Q() :- E(x,y)","class":"AC","options":{"max_vars":12}}`,
			wantStatus: 200,
			wantBody:   `{"key":"Y3xuMjtkO0UoMik6MCwxAGNvcmUuYWNDbGFzczpBQwAxMi8xLzA","query":"Q() :- E(x,y)","minimized":"Q() :- E(v0,v1)","class":"AC","approximation":"Q_approx() :- E(x0,x1)","approximations":["Q_approx() :- E(x0,x1)"],"plan":"yannakakis","candidates_inspected":1,"cache_hit":false}`,
		},
		{
			name:       "malformed JSON: 400 bad_request",
			path:       "/v1/prepare",
			body:       `not json`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"decoding request body: invalid character 'o' in literal null (expecting 'u')"}}`,
		},
		{
			name:       "ragged database: 400 bad_request",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,x)","exact":true,"database":{"E":[[1,2],[1,2,3]]}}`,
			wantStatus: 400,
			wantBody:   `{"error":{"code":"bad_request","message":"database: relation \"E\" mixes arities 2 and 3"}}`,
		},
		{
			name:       "over budget: 422 budget_exceeded",
			path:       "/v1/prepare",
			body:       `{"query":"` + c11 + `","class":"TW1"}`,
			wantStatus: 422,
			wantBody:   `{"error":{"code":"budget_exceeded","message":"core: query has 11 variables; limit is 10 (raise Options.MaxVars): search budget exceeded"}}`,
		},
		{
			name:       "deadline mid-search: 504 canceled",
			path:       "/v1/prepare",
			body:       `{"query":"` + c9 + `","class":"TW1","timeout_ms":30}`,
			wantStatus: 504,
			wantBody:   `{"error":{"code":"canceled","message":"canceled: context deadline exceeded"}}`,
		},
	}
	_, ts := newTestServer(t, Config{})
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			status, _, body := post(t, ts, step.path, step.body)
			if status != step.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", status, step.wantStatus, body)
			}
			if body != step.wantBody {
				t.Fatalf("body:\n got %s\nwant %s", body, step.wantBody)
			}
		})
	}
}

// not_in_class cannot be provoked through well-formed HTTP input (it
// needs an incompatible head arity the parser already rejects), so its
// mapping is pinned directly, along with the internal fallback.
func TestErrorMapping(t *testing.T) {
	e := mapError(fmt.Errorf("wrapped: %w", cqapprox.ErrNotInClass))
	if e.status != http.StatusUnprocessableEntity || e.info.Code != api.CodeNotInClass {
		t.Fatalf("ErrNotInClass mapped to %d/%s", e.status, e.info.Code)
	}
	e = mapError(errors.New("boom"))
	if e.status != http.StatusInternalServerError || e.info.Code != api.CodeInternal {
		t.Fatalf("unknown error mapped to %d/%s", e.status, e.info.Code)
	}
}

// /v1/stats aggregates the engine cache counters and the per-endpoint
// metrics the instrumented handlers maintain.
func TestStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/prepare", `{"query":"Q(x) :- E(x,y), E(y,z), E(z,x)","class":"TW1"}`)
	post(t, ts, "/v1/prepare", `{"query":"Q(x) :- E(x,y), E(y,z), E(z,x)","class":"TW1"}`)
	post(t, ts, "/v1/eval", `{"query":"Q(x) :- E(x,y), E(y,z), E(z,x)","class":"TW1","database":{"E":[[1,2],[2,1]]}}`)
	post(t, ts, "/v1/eval", `not json`)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Misses != 1 || stats.Cache.Hits != 2 || stats.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v", stats.Cache)
	}
	// The one /v1/eval ran the indexed runtime over the cached plan.
	if stats.Cache.IndexedEvals != 1 || stats.Cache.IndexBuilds == 0 {
		t.Fatalf("index stats = %+v", stats.Cache)
	}
	ep := stats.Endpoints["/v1/prepare"]
	if ep.Requests != 2 || ep.Errors != 0 {
		t.Fatalf("/v1/prepare stats = %+v", ep)
	}
	ep = stats.Endpoints["/v1/eval"]
	if ep.Requests != 2 || ep.Errors != 1 || ep.LatencyTotalMS <= 0 {
		t.Fatalf("/v1/eval stats = %+v", ep)
	}
	// The HTTP payload and the white-box snapshot agree.
	if got := s.Stats().Endpoints["/v1/eval"].Requests; got != 2 {
		t.Fatalf("Stats() disagrees with /v1/stats: %d", got)
	}
}

// Admission control: the prepare and eval pools are separate, saturate
// independently, and reject with 429 + Retry-After instead of queueing.
// Deterministic: the slot-holding preparation parks on the
// onPrepareStart seam after claiming its slot, so every saturation
// check below runs while the slot is provably held — no timing, no
// Bell-number search to keep a slot busy "long enough".
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflightPrepare: 1, MaxInflightEval: 1})

	// Warm the loop query into the cache directly on the engine (the
	// HTTP path would trip the hook below): cached evaluations must
	// keep flowing even when the prepare pool is saturated.
	warm, err := cqapprox.Parse("Q(x) :- E(x,x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.eng.PrepareExact(context.Background(), warm); err != nil {
		t.Fatal(err)
	}

	// The first uncached preparation through the server signals entry
	// and parks, holding the only prepare slot until released.
	entered := make(chan struct{})
	releaseSlot := make(chan struct{})
	var once sync.Once
	s.onPrepareStart = func() {
		once.Do(func() {
			close(entered)
			<-releaseSlot
		})
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		status, _, body := post(t, ts, "/v1/prepare", `{"query":"Q(a) :- R(a,b)","exact":true}`)
		if status != 200 {
			t.Errorf("slot-holding prepare: status %d, body %s", status, body)
		}
	}()
	<-entered // the slot is now held, deterministically

	status, hdr, body := post(t, ts, "/v1/prepare", `{"query":"Q(x) :- E(x,y)","class":"TW1"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated prepare: status %d, body %s", status, body)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("429 must carry Retry-After: %v", hdr)
	}
	want := `{"error":{"code":"overloaded","message":"server at capacity for this endpoint; retry shortly"}}`
	if body != want {
		t.Fatalf("429 body:\n got %s\nwant %s", body, want)
	}

	// The eval pool is independent: a *cached* inline query still flows.
	if status, _, body := post(t, ts, "/v1/eval",
		`{"query":"Q(x) :- E(x,x)","exact":true,"database":{"E":[[3,3]]}}`); status != 200 {
		t.Fatalf("cached eval while prepare saturated: status %d, body %s", status, body)
	}
	// But an *uncached* inline query needs a prepare slot even on the
	// eval path — the NP-hard search must not sneak past its bound.
	if status, _, body := post(t, ts, "/v1/eval",
		`{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[3,3]]}}`); status != http.StatusTooManyRequests {
		t.Fatalf("uncached inline eval during prepare saturation: status %d, body %s", status, body)
	}

	close(releaseSlot) // let the parked preparation finish
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("slot-holding prepare did not finish after release")
	}
	// The metric updates land after the handler returns; poll for the
	// final counter state rather than racing it.
	waitFor(t, 10*time.Second, func() bool {
		ep := s.Stats().Endpoints["/v1/prepare"]
		return ep.InFlight == 0 && ep.Rejected == 1
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The register-once database flow: POST /v1/db freezes a snapshot,
// eval/eval-bool/stream address it by name without re-shipping data,
// results match the inline path exactly, and /v1/stats exposes the
// registry counters.
func TestRegisterDBFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, body := post(t, ts, "/v1/db",
		`{"name":"social","database":{"E":[[1,2],[2,3],[3,4],[4,1]]}}`)
	if status != 200 {
		t.Fatalf("register: status %d, body %s", status, body)
	}
	var reg api.RegisterDBResponse
	if err := json.Unmarshal([]byte(body), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Name != "social" || reg.Relations != 1 || reg.Facts != 4 || reg.Replaced || reg.Version == 0 {
		t.Fatalf("register response = %+v", reg)
	}

	// Re-registering the same name replaces it and says so.
	status, _, body = post(t, ts, "/v1/db",
		`{"name":"social","database":{"E":[[1,2],[2,3],[3,4],[4,1]]}}`)
	if status != 200 {
		t.Fatalf("re-register: status %d, body %s", status, body)
	}
	var reg2 api.RegisterDBResponse
	if err := json.Unmarshal([]byte(body), &reg2); err != nil {
		t.Fatal(err)
	}
	if !reg2.Replaced || reg2.Version <= reg.Version {
		t.Fatalf("re-register response = %+v (first %+v)", reg2, reg)
	}

	const query = `"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true`

	// eval by name ≡ eval inline.
	status, _, byName := post(t, ts, "/v1/eval", `{`+query+`,"db":"social"}`)
	if status != 200 {
		t.Fatalf("eval by name: status %d, body %s", status, byName)
	}
	status, _, inline := post(t, ts, "/v1/eval", `{`+query+`,"database":{"E":[[1,2],[2,3],[3,4],[4,1]]}}`)
	if status != 200 || byName != inline {
		t.Fatalf("eval by name %q, inline %q (status %d)", byName, inline, status)
	}

	// eval/bool and stream accept the name too.
	if status, _, body := post(t, ts, "/v1/eval/bool", `{`+query+`,"db":"social"}`); status != 200 || body != `{"result":true}` {
		t.Fatalf("eval/bool by name: status %d, body %s", status, body)
	}
	status, _, body = post(t, ts, "/v1/stream", `{`+query+`,"db":"social"}`)
	if status != 200 || !strings.Contains(body, "[1,3]") {
		t.Fatalf("stream by name: status %d, body %s", status, body)
	}

	// Unknown name: 404 unknown_db.
	status, _, body = post(t, ts, "/v1/eval", `{`+query+`,"db":"nope"}`)
	if status != 404 || !strings.Contains(body, `"code":"unknown_db"`) {
		t.Fatalf("unknown db: status %d, body %s", status, body)
	}

	// Naming and shipping at once: 400.
	status, _, body = post(t, ts, "/v1/eval", `{`+query+`,"db":"social","database":{"E":[[1,2]]}}`)
	if status != 400 || !strings.Contains(body, "mutually exclusive") {
		t.Fatalf("db+database: status %d, body %s", status, body)
	}

	// Registration without a name: 400.
	if status, _, body := post(t, ts, "/v1/db", `{"database":{"E":[[1,2]]}}`); status != 400 {
		t.Fatalf("nameless register: status %d, body %s", status, body)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// Lookups: 3 by-name hits, 1 miss ("nope"); registrations never
	// probe (Replaced is reported atomically by RegisterDB) and the
	// db+database conflict is rejected before any lookup.
	if d := stats.DBs; d.Entries != 1 || d.Registered != 2 || d.Hits != 3 || d.Misses != 1 {
		t.Fatalf("dbs stats = %+v", d)
	}
	// The three by-name evaluations warmed and then reused the
	// snapshot's index cache.
	if d := stats.DBs; d.IndexBuilds == 0 || d.IndexHits == 0 {
		t.Fatalf("dbs index stats = %+v", d)
	}
	ep := stats.Endpoints["/v1/db"]
	if ep.Requests != 3 || ep.Errors != 1 {
		t.Fatalf("/v1/db endpoint stats = %+v", ep)
	}
}

// /v1/count end to end: exact counting over inline and registered
// databases, the seeded estimator, knob validation, and the count
// counters in /v1/stats.
func TestCountEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const edges = `{"E":[[1,2],[2,3],[3,4],[4,5]]}`

	// Exact count of a full-join head: the multiplicity DP, no answer
	// materialization. The path 1→2→3→4→5 has three 2-step walks.
	status, _, body := post(t, ts, "/v1/count",
		`{"query":"Q(x,y,z) :- E(x,y), E(y,z)","exact":true,"database":`+edges+`}`)
	if status != 200 {
		t.Fatalf("count: status %d, body %s", status, body)
	}
	var res api.CountResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Estimated || res.Mode != "exact-dp" {
		t.Fatalf("count response = %+v", res)
	}

	// Registered databases work exactly like /v1/eval's db field.
	if status, _, body := post(t, ts, "/v1/db", `{"name":"path","database":`+edges+`}`); status != 200 {
		t.Fatalf("register: status %d, body %s", status, body)
	}
	status, _, body = post(t, ts, "/v1/count",
		`{"query":"Q(x,y,z) :- E(x,y), E(y,z)","exact":true,"db":"path"}`)
	if status != 200 || !strings.Contains(body, `"count":3`) {
		t.Fatalf("count by name: status %d, body %s", status, body)
	}

	// The estimator leg: a projection head classifies as sampling, and
	// a pinned seed makes the response deterministic.
	estReq := `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"db":"path","estimate":true,"epsilon":0.25,"seed":7}`
	status, _, body = post(t, ts, "/v1/count", estReq)
	if status != 200 {
		t.Fatalf("estimate: status %d, body %s", status, body)
	}
	var est api.CountResponse
	if err := json.Unmarshal([]byte(body), &est); err != nil {
		t.Fatal(err)
	}
	if !est.Estimated || est.Mode != "estimate" || est.Samples == 0 || est.Batches == 0 {
		t.Fatalf("estimate response = %+v", est)
	}
	if est.Epsilon != 0.25 || est.Delta == 0 {
		t.Fatalf("estimate knobs not echoed: %+v", est)
	}
	if rel := est.Estimate/3 - 1; rel > 0.25 || rel < -0.25 {
		t.Fatalf("estimate %v for true count 3 misses ε=0.25", est.Estimate)
	}
	if _, _, again := post(t, ts, "/v1/count", estReq); again != body {
		t.Fatalf("seeded estimate not deterministic:\n %s\n %s", body, again)
	}

	// Knob validation happens before any work runs.
	for name, req := range map[string]string{
		"knobs without estimate": `{"query":"Q(x) :- E(x,y)","exact":true,"db":"path","epsilon":0.1}`,
		"epsilon out of range":   `{"query":"Q(x) :- E(x,y)","exact":true,"db":"path","estimate":true,"epsilon":1.5}`,
		"delta out of range":     `{"query":"Q(x) :- E(x,y)","exact":true,"db":"path","estimate":true,"delta":1}`,
		"negative max_samples":   `{"query":"Q(x) :- E(x,y)","exact":true,"db":"path","estimate":true,"max_samples":-1}`,
	} {
		status, _, body := post(t, ts, "/v1/count", req)
		if status != 400 || !strings.Contains(body, `"code":"bad_request"`) {
			t.Fatalf("%s: status %d, body %s", name, status, body)
		}
	}

	// The counting work surfaced in the cache counters and the endpoint
	// metrics (4 of the 8 requests above were validation failures).
	stats := s.Stats()
	if c := stats.Cache; c.ExactCounts != 2 || c.EstimatedCounts != 2 || c.SampleBatches == 0 {
		t.Fatalf("count cache stats = %+v", c)
	}
	if ep := stats.Endpoints[epCount]; ep.Requests != 8 || ep.Errors != 4 {
		t.Fatalf("%s endpoint stats = %+v", epCount, ep)
	}
}

// The parallelism knob end to end: an explicit request budget is
// clamped to the configured cap and recorded in the engine's
// parallel-eval counter; /v1/stats reports the effective server
// limits. Answers are identical at any budget.
func TestParallelismClampAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxParallelism: 2, MaxInflightPrepare: 4, MaxInflightEval: 8})
	eval := `{"query":"Q(x) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3]]},"parallelism":%d}`

	status, _, serialBody := post(t, ts, "/v1/eval", fmt.Sprintf(eval, 0))
	if status != http.StatusOK {
		t.Fatalf("serial eval: %d %s", status, serialBody)
	}
	if got := s.Stats().Cache.ParallelEvals; got != 0 {
		t.Fatalf("serial eval counted as parallel: %d", got)
	}

	// A budget far above the cap is clamped (to 2 > 1), not rejected.
	status, _, parBody := post(t, ts, "/v1/eval", fmt.Sprintf(eval, 64))
	if status != http.StatusOK {
		t.Fatalf("parallel eval: %d %s", status, parBody)
	}
	if parBody != serialBody {
		t.Fatalf("parallel answers differ:\n  serial   %s\n  parallel %s", serialBody, parBody)
	}
	stats := s.Stats()
	if stats.Cache.ParallelEvals != 1 {
		t.Fatalf("parallel_evals = %d, want 1", stats.Cache.ParallelEvals)
	}
	if stats.Server.MaxParallelism != 2 || stats.Server.MaxInflightPrepare != 4 || stats.Server.MaxInflightEval != 8 {
		t.Fatalf("server limits = %+v", stats.Server)
	}

	// The same stats shape arrives over the wire.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire api.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Server != stats.Server || wire.Cache.ParallelEvals != 1 {
		t.Fatalf("wire stats = %+v", wire)
	}

	// A traced eval carries the clamped budget too: the trace reports
	// it and parallel_evals counts the call.
	traced := `{"query":"Q(x) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3]]},"trace":true,"parallelism":4}`
	status, _, body := post(t, ts, "/v1/eval", traced)
	if status != http.StatusOK || !strings.Contains(body, `"parallelism":2`) {
		t.Fatalf("parallel traced eval: %d %s", status, body)
	}
	if got := s.Stats().Cache.ParallelEvals; got != 2 {
		t.Fatalf("parallel_evals after traced eval = %d, want 2", got)
	}
}

// GOMAXPROCS-derived admission defaults: the zero Config sizes both
// pools from the host's core count and caps request parallelism at
// GOMAXPROCS.
func TestConfigDefaultsFromGOMAXPROCS(t *testing.T) {
	cfg := Config{}.withDefaults()
	procs := runtime.GOMAXPROCS(0)
	if want := max(2, procs/2); cfg.MaxInflightPrepare != want {
		t.Fatalf("MaxInflightPrepare = %d, want %d", cfg.MaxInflightPrepare, want)
	}
	if want := 8 * procs; cfg.MaxInflightEval != want {
		t.Fatalf("MaxInflightEval = %d, want %d", cfg.MaxInflightEval, want)
	}
	if cfg.MaxParallelism != procs {
		t.Fatalf("MaxParallelism = %d, want %d", cfg.MaxParallelism, procs)
	}
	// Negative values still mean unbounded pools / serial-only eval.
	cfg = Config{MaxInflightPrepare: -1, MaxInflightEval: -1, MaxParallelism: -1}.withDefaults()
	if cfg.MaxInflightPrepare != 0 || cfg.MaxInflightEval != 0 || cfg.MaxParallelism != 1 {
		t.Fatalf("negative config = %+v", cfg)
	}
}

// /v1/explain end to end: the structured plan view of an inline query,
// the stable text rendering, explain-by-key, and the parse/prepare
// phase timings.
func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, body := post(t, ts, "/v1/explain",
		`{"query":"Q(x) :- E(x,y), E(y,z), E(z,x)","class":"TW1"}`)
	if status != 200 {
		t.Fatalf("explain: status %d, body %s", status, body)
	}
	var res api.ExplainResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Key != triangleTW1Key {
		t.Fatalf("explain key = %q, want %q", res.Key, triangleTW1Key)
	}
	ex := res.Explain
	if ex == nil || ex.Mode != "yannakakis" || ex.Class != "TW(1)" || ex.Candidates != 4 {
		t.Fatalf("explain = %+v", ex)
	}
	if len(ex.Trees) != 1 || len(ex.Trees[0].Nodes) != 3 {
		t.Fatalf("explain forest shape = %+v", ex.Trees)
	}
	// The prepare phases: parse prepended by the handler, then the
	// engine's minimize/search/plan, in that order.
	var names []string
	for _, p := range ex.Prepare {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); got != "parse,minimize,search,plan" {
		t.Fatalf("prepare phases = %s", got)
	}
	// The text rendering is the struct's own (stable) rendering.
	if res.Text != ex.Text() || !strings.Contains(res.Text, "plan: yannakakis") {
		t.Fatalf("explain text:\n%s", res.Text)
	}

	// Explain by key returns the same plan, without a parse phase.
	status, _, body = post(t, ts, "/v1/explain", `{"key":"`+triangleTW1Key+`"}`)
	if status != 200 {
		t.Fatalf("explain by key: status %d, body %s", status, body)
	}
	var byKey api.ExplainResponse
	if err := json.Unmarshal([]byte(body), &byKey); err != nil {
		t.Fatal(err)
	}
	if byKey.Text != res.Text {
		t.Fatalf("explain by key text differs:\n%s\nvs\n%s", byKey.Text, res.Text)
	}
	if len(byKey.Explain.Prepare) > 0 && byKey.Explain.Prepare[0].Name == "parse" {
		t.Fatalf("explain by key has a parse phase: %+v", byKey.Explain.Prepare)
	}

	// Unknown key: the usual 404.
	if status, _, body := post(t, ts, "/v1/explain", `{"key":"bm90LWEta2V5"}`); status != 404 {
		t.Fatalf("explain unknown key: status %d, body %s", status, body)
	}
}

// trace:true end to end on /v1/eval, /v1/eval/bool and /v1/count: the
// response carries an execution trace with per-node row counts and
// phase timings; untraced responses stay byte-identical to before.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const db = `{"E":[[1,2],[2,3],[3,4],[4,5]]}`

	status, _, body := post(t, ts, "/v1/eval",
		`{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":`+db+`,"trace":true}`)
	if status != 200 {
		t.Fatalf("traced eval: status %d, body %s", status, body)
	}
	var res api.EvalResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Trace == nil {
		t.Fatalf("traced eval response = %+v", res)
	}
	tr := res.Trace
	if tr.Mode != "yannakakis" || tr.TotalNS <= 0 || len(tr.Nodes) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	for _, n := range tr.Nodes {
		if n.Rows == 0 || n.Atom == "" {
			t.Fatalf("node trace missing rows/atom: %+v", n)
		}
	}
	var phaseNS int64
	for _, p := range tr.Phases {
		phaseNS += p.NS
	}
	if len(tr.Phases) == 0 || phaseNS > tr.TotalNS {
		t.Fatalf("trace phases = %+v (total %d)", tr.Phases, tr.TotalNS)
	}

	// Untraced responses carry no trace block at all.
	status, _, body = post(t, ts, "/v1/eval",
		`{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":`+db+`}`)
	if status != 200 || strings.Contains(body, `"trace"`) {
		t.Fatalf("untraced eval leaked a trace: status %d, body %s", status, body)
	}

	// eval/bool and count trace too.
	status, _, body = post(t, ts, "/v1/eval/bool",
		`{"query":"Q() :- E(x,y)","exact":true,"database":`+db+`,"trace":true}`)
	if status != 200 || !strings.Contains(body, `"trace"`) {
		t.Fatalf("traced eval/bool: status %d, body %s", status, body)
	}
	status, _, body = post(t, ts, "/v1/count",
		`{"query":"Q(x,y,z) :- E(x,y), E(y,z)","exact":true,"database":`+db+`,"trace":true}`)
	if status != 200 {
		t.Fatalf("traced count: status %d, body %s", status, body)
	}
	var cnt api.CountResponse
	if err := json.Unmarshal([]byte(body), &cnt); err != nil {
		t.Fatal(err)
	}
	if cnt.Count != 3 || cnt.Mode != "exact-dp" || cnt.Trace == nil {
		t.Fatalf("traced count response = %+v", cnt)
	}
	found := false
	for _, p := range cnt.Trace.Phases {
		if p.Name == "count" {
			found = true
		}
	}
	if !found {
		t.Fatalf("count trace lacks a count phase: %+v", cnt.Trace.Phases)
	}
}

// The slow-query log: with a logger and a zero threshold every request
// logs a Warn line, and a traced request's line embeds the trace JSON.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	s := New(cqapprox.NewEngine(), Config{Logger: logger, SlowQuery: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post(t, ts, "/v1/eval",
		`{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3]]},"trace":true}`)
	// The log line lands after the handler returns; poll for it.
	read := func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
	waitFor(t, 5*time.Second, func() bool { return strings.Contains(read(), `"slow request"`) })
	out := read()
	if !strings.Contains(out, `"endpoint":"/v1/eval"`) {
		t.Fatalf("slow-query log missing the endpoint: %s", out)
	}
	if !strings.Contains(out, "semijoin_rows_in") {
		t.Fatalf("slow-query log lacks the trace: %s", out)
	}
	if !strings.Contains(out, `"id":`) {
		t.Fatalf("slow-query log lacks a request id: %s", out)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// The latency histogram behind /v1/stats: min/max/quantiles appear
// once an endpoint has served a request, are consistent with each
// other, and /debug/vars derives from the same histogram.
func TestLatencyHistogram(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		post(t, ts, "/v1/eval",
			`{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,2]]}}`)
	}
	// record() runs after each handler returns; wait for the last one.
	waitFor(t, 5*time.Second, func() bool {
		ep := s.Stats().Endpoints["/v1/eval"]
		return ep.LatencyMinMS > 0 && ep.LatencyTotalMS > 0
	})
	ep := s.Stats().Endpoints["/v1/eval"]
	if ep.Requests != 5 || ep.LatencyMinMS <= 0 || ep.LatencyMaxMS < ep.LatencyMinMS {
		t.Fatalf("histogram min/max = %+v", ep)
	}
	if ep.LatencyP50MS <= 0 || ep.LatencyP95MS < ep.LatencyP50MS || ep.LatencyP99MS < ep.LatencyP95MS {
		t.Fatalf("histogram quantiles = %+v", ep)
	}
	// Quantiles are upper bucket bounds, so p99 never exceeds the
	// observed max and never undershoots the min's bucket.
	if ep.LatencyP99MS > ep.LatencyMaxMS && ep.LatencyP99MS > latencyBucketsMS[len(latencyBucketsMS)-1] {
		t.Fatalf("p99 %v above max %v", ep.LatencyP99MS, ep.LatencyMaxMS)
	}
	// An idle endpoint reports no distribution at all.
	if st := s.Stats().Endpoints["/v1/stream"]; st.LatencyMinMS != 0 || st.LatencyP99MS != 0 {
		t.Fatalf("idle endpoint has latency stats: %+v", st)
	}
	// /debug/vars sees the same numbers.
	v := s.MetricsVars().Get("/v1/eval").(*expvar.Map).Get("latency_ms")
	var wire map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &wire); err != nil {
		t.Fatal(err)
	}
	if wire["min_ms"] != ep.LatencyMinMS || wire["p99_ms"] != ep.LatencyP99MS {
		t.Fatalf("/debug/vars %v disagrees with /v1/stats %+v", wire, ep)
	}
}

// An engine-wide parallelism default is inherited by requests that
// carry no explicit budget — and still bounded by the server cap.
func TestParallelismEngineDefaultClamped(t *testing.T) {
	eng := cqapprox.NewEngine(cqapprox.WithParallelism(8))
	s := New(eng, Config{MaxParallelism: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	status, _, body := post(t, ts, "/v1/eval",
		`{"query":"Q(x) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3]]}}`)
	if status != http.StatusOK {
		t.Fatalf("eval: %d %s", status, body)
	}
	// The inherited budget (8, clamped to 2) still counts as parallel;
	// had the clamp been bypassed or the default dropped to serial,
	// the counter would read 0 — or the budget 8 would exceed the cap.
	if got := s.Stats().Cache.ParallelEvals; got != 1 {
		t.Fatalf("parallel_evals = %d, want 1 (engine default inherited + clamped)", got)
	}
}
