package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cqapprox/api"
	"cqapprox/client"
)

const pathQuery = `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[1,2],[2,3],[3,4],[4,5],[5,6]]}}`

// The acceptance property of /v1/stream: the first NDJSON answer is
// on the wire before the rest of the answer set is even enumerated,
// let alone materialized. The proof is deterministic, not timing-based:
// the test hook pauses the server's enumeration right after answer 1 is
// flushed, and the client reads that line to completion while the pause
// holds — at that point no later answer exists anywhere.
func TestStreamFirstAnswerBeforeMaterialization(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	firstFlushed := make(chan struct{})
	resume := make(chan struct{})
	s.onStreamAnswer = func(_ context.Context, n int) {
		if n == 1 {
			close(firstFlushed)
			<-resume
		}
	}

	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(pathQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	select {
	case <-firstFlushed:
	case <-time.After(5 * time.Second):
		t.Fatal("first answer never flushed")
	}

	// Enumeration is paused with exactly one answer produced; the line
	// must nevertheless be fully readable now.
	rd := bufio.NewReader(resp.Body)
	type lineResult struct {
		line string
		err  error
	}
	linec := make(chan lineResult, 1)
	go func() {
		line, err := rd.ReadString('\n')
		linec <- lineResult{line, err}
	}()
	var first string
	select {
	case lr := <-linec:
		if lr.err != nil {
			t.Fatalf("reading first line: %v", lr.err)
		}
		first = strings.TrimSpace(lr.line)
	case <-time.After(5 * time.Second):
		t.Fatal("first answer not readable while the rest is unenumerated: the handler materialized")
	}
	var tup []int
	if err := json.Unmarshal([]byte(first), &tup); err != nil || len(tup) != 2 {
		t.Fatalf("first line %q is not an answer tuple: %v", first, err)
	}

	// Release the enumeration and drain: the stream must deliver the
	// complete, duplicate-free answer set (4 path pairs).
	close(resume)
	got := map[string]bool{first: true}
	for {
		line, err := rd.ReadString('\n')
		if line = strings.TrimSpace(line); line != "" {
			if strings.HasPrefix(line, "{") {
				t.Fatalf("unexpected error trailer: %s", line)
			}
			if got[line] {
				t.Fatalf("duplicate streamed answer %s", line)
			}
			got[line] = true
		}
		if err != nil {
			break
		}
	}
	if len(got) != 4 {
		t.Fatalf("streamed %d distinct answers, want 4: %v", len(got), got)
	}
}

// longPathRequest returns a stream request whose answer set is large
// (a 300-edge path has 299 length-2 paths), so a cancelled enumeration
// is distinguishable from one that simply finished.
func longPathRequest() api.EvalRequest {
	edges := make([][]int, 300)
	for i := range edges {
		edges[i] = []int{i, i + 1}
	}
	return api.EvalRequest{
		Query:    "Q(x,z) :- E(x,y), E(y,z)",
		Exact:    true,
		Database: api.Database{"E": edges},
	}
}

const longPathAnswers = 299

// Closing the client connection mid-stream must cancel the server-side
// enumeration promptly and leak nothing: in-flight drops to zero, no
// answer after the disconnect is produced, and the goroutine count
// returns to its pre-request baseline. The hook holds the enumeration
// at answer 1 until the server has seen the disconnect (the request
// context is done), and every stream — plain, and ranked through the
// fallback or a connex visit program — checks its context before every
// answer, so exactly one answer is produced.
func TestStreamClientDisconnect(t *testing.T) {
	fallback := longPathRequest()
	fallback.Order = []string{"z"} // x and z are bridged by y: no connex program
	connex := longPathRequest()
	connex.Query = "Q(x,y,z) :- E(x,y), E(y,z)"
	connex.Order = []string{"y"}
	for _, c := range []struct {
		name string
		req  api.EvalRequest
	}{{"plain", longPathRequest()}, {"ranked fallback", fallback}, {"ranked connex", connex}} {
		t.Run(c.name, func(t *testing.T) { streamDisconnect(t, c.req) })
	}
}

func streamDisconnect(t *testing.T, req api.EvalRequest) {
	s, ts := newTestServer(t, Config{})
	var produced atomic.Int64
	first := make(chan struct{})
	s.onStreamAnswer = func(ctx context.Context, n int) {
		produced.Store(int64(n))
		if n == 1 {
			close(first)
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Second):
				t.Error("the request context never ended after the disconnect")
			}
		}
	}

	// Dedicated client: closing its idle connections later makes the
	// goroutine baseline comparison exact.
	tr := &http.Transport{}
	httpc := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpc.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-first:
	case <-time.After(5 * time.Second):
		t.Fatal("no answer delivered")
	}
	resp.Body.Close() // disconnect with the enumeration paused at answer 1

	waitFor(t, 10*time.Second, func() bool {
		return s.Stats().Endpoints["/v1/stream"].InFlight == 0
	})
	if n := produced.Load(); n != 1 {
		t.Fatalf("server produced %d of %d answers, want 1: the disconnect came at answer 1", n, longPathAnswers)
	}
	tr.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// A deadline expiring mid-stream truncates the NDJSON body with a
// terminal error object line; the typed client surfaces it from errf
// as *APIError{code: canceled} after yielding the delivered prefix.
func TestStreamDeadlineTrailer(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.onStreamAnswer = func(_ context.Context, n int) {
		if n == 1 {
			time.Sleep(150 * time.Millisecond) // outlive the request deadline
		}
	}
	c := client.New(ts.URL)
	req := longPathRequest()
	req.TimeoutMS = 50

	var got [][]int
	seq, errf := c.Stream(context.Background(), req)
	for tup := range seq {
		got = append(got, tup)
	}
	err := errf()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Info.Code != api.CodeCanceled {
		t.Fatalf("want APIError canceled, got %v (after %d answers)", err, len(got))
	}
	if len(got) == 0 || len(got) >= longPathAnswers {
		t.Fatalf("want a truncated non-empty prefix, got %d answers", len(got))
	}
}

// /v1/stream rejects trace:true up front — a stream response has
// nowhere to put the trace block — with the same bad_request shape the
// ranking-knob validation uses.
func TestStreamRejectsTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/v1/stream",
		`{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,2]]},"trace":true}`)
	var e api.ErrorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("non-JSON error body %q", body)
	}
	if status != 400 || e.Error.Code != api.CodeBadRequest || !strings.Contains(e.Error.Message, "trace") {
		t.Fatalf("status %d, error %+v; want 400 bad_request mentioning trace", status, e.Error)
	}
}

// The typed client round-trips a complete request cycle against a real
// server: prepare (miss then hit), eval by key, eval/bool, stream, and
// stats — plus typed error decoding.
func TestClientRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := client.New(ts.URL).WithHTTPClient(ts.Client())
	ctx := context.Background()

	prep, err := c.Prepare(ctx, api.PrepareRequest{Query: "Q(x) :- E(x,y), E(y,z), E(z,x)", Class: "TW1"})
	if err != nil {
		t.Fatal(err)
	}
	if prep.CacheHit || prep.Key == "" || prep.Plan != "yannakakis" {
		t.Fatalf("prepare = %+v", prep)
	}
	prep2, err := c.Prepare(ctx, api.PrepareRequest{Query: "Q(x) :- E(x,y), E(y,z), E(z,x)", Class: "TW1"})
	if err != nil {
		t.Fatal(err)
	}
	if !prep2.CacheHit || prep2.Key != prep.Key {
		t.Fatalf("second prepare = %+v", prep2)
	}

	db := api.Database{"E": {{1, 2}, {2, 1}, {2, 2}, {3, 4}}}
	res, err := c.Eval(ctx, api.EvalRequest{Key: prep.Key, Database: db})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 { // 1 and 2 close a 2-cycle; 3 does not
		t.Fatalf("eval = %+v", res)
	}
	ok, err := c.EvalBool(ctx, api.EvalRequest{Key: prep.Key, Database: db})
	if err != nil || !ok {
		t.Fatalf("evalbool = %v, %v", ok, err)
	}

	var streamed [][]int
	seq, errf := c.Stream(ctx, api.EvalRequest{Key: prep.Key, Database: db})
	for tup := range seq {
		streamed = append(streamed, tup)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.Count {
		t.Fatalf("stream delivered %d answers, eval %d", len(streamed), res.Count)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 || stats.Endpoints["/v1/eval"].Requests != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	_, err = c.Prepare(ctx, api.PrepareRequest{Query: "Q(x) :- E(x,", Class: "TW1"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Info.Code != api.CodeParseError || apiErr.Status != 400 {
		t.Fatalf("want parse_error APIError, got %v", err)
	}
	if apiErr.Info.Line != 1 || apiErr.Info.Col != 13 {
		t.Fatalf("parse position lost: %+v", apiErr.Info)
	}
}
