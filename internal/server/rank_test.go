package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cqapprox/api"
)

// The three-edge smoke graph: E = {(1,2),(2,1),(2,2)}.
var smokeDB = api.Database{"E": {{1, 2}, {2, 1}, {2, 2}}}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeEval(t *testing.T, resp *http.Response) api.EvalResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out api.EvalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// /v1/eval with order/limit: a lex-connex key streams the exact ordered
// prefix through the ranked pipeline (ranked_evals ticks), an
// untractable key falls back to eval+sort+truncate with identical
// ordering semantics (rank_fallbacks ticks).
func TestEvalRanked(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	res := decodeEval(t, postJSON(t, ts.URL+"/v1/eval", api.EvalRequest{
		Query: "Q(x,y,z) :- E(x,y), E(y,z)", Exact: true, Database: smokeDB,
		Order: []string{"z", "y", "x"}, Limit: 3,
	}))
	want := [][]int{{1, 2, 1}, {2, 2, 1}, {2, 1, 2}}
	if len(res.Answers) != 3 {
		t.Fatalf("ranked eval returned %d answers: %v", len(res.Answers), res.Answers)
	}
	for i := range want {
		for j := range want[i] {
			if res.Answers[i][j] != want[i][j] {
				t.Fatalf("ranked answers = %v, want %v", res.Answers, want)
			}
		}
	}
	if st := s.Stats(); st.Cache.RankedEvals != 1 || st.Cache.RankFallbacks != 0 {
		t.Fatalf("after connex eval: ranked=%d fallbacks=%d", st.Cache.RankedEvals, st.Cache.RankFallbacks)
	}

	// The projected path query admits no connex program for (z,x).
	res = decodeEval(t, postJSON(t, ts.URL+"/v1/eval", api.EvalRequest{
		Query: "Q(x,z) :- E(x,y), E(y,z)", Exact: true, Database: smokeDB,
		Order: []string{"z", "x"}, Limit: 3,
	}))
	want = [][]int{{1, 1}, {2, 1}, {1, 2}}
	if len(res.Answers) != 3 {
		t.Fatalf("fallback eval returned %d answers: %v", len(res.Answers), res.Answers)
	}
	for i := range want {
		for j := range want[i] {
			if res.Answers[i][j] != want[i][j] {
				t.Fatalf("fallback answers = %v, want %v", res.Answers, want)
			}
		}
	}
	if st := s.Stats(); st.Cache.RankedEvals != 1 || st.Cache.RankFallbacks != 1 {
		t.Fatalf("after fallback eval: ranked=%d fallbacks=%d", st.Cache.RankedEvals, st.Cache.RankFallbacks)
	}
}

// A traced ranked eval returns exactly the untraced answers, and its
// trace names the path the key took: the pass rooted at the first
// visit plus the ordered search on a connex key, the plain
// evaluation's phases on the fallback of the projected path query,
// whose existential y bridges the two head variables.
func TestEvalRankedTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		query  string
		order  []string
		phases []string
	}{
		{"Q(x,y,z) :- E(x,y), E(y,z)", []string{"z", "y", "x"}, []string{"semijoin-down", "ranked"}},
		{"Q(x,z) :- E(x,y), E(y,z)", []string{"z", "x"}, []string{"semijoin-down", "join", "project"}},
	} {
		req := api.EvalRequest{Query: c.query, Exact: true, Database: smokeDB, Order: c.order, Descending: true, Limit: 2}
		plain := decodeEval(t, postJSON(t, ts.URL+"/v1/eval", req))
		req.Trace = true
		traced := decodeEval(t, postJSON(t, ts.URL+"/v1/eval", req))
		if fmt.Sprint(traced.Answers) != fmt.Sprint(plain.Answers) || len(plain.Answers) != 2 {
			t.Errorf("%s: traced answers %v, untraced %v", c.query, traced.Answers, plain.Answers)
		}
		if plain.Trace != nil || traced.Trace == nil {
			t.Fatalf("%s: untraced trace %v, traced trace %v", c.query, plain.Trace, traced.Trace)
		}
		var phases []string
		for _, ph := range traced.Trace.Phases {
			phases = append(phases, ph.Name)
		}
		if !slices.Equal(phases, c.phases) {
			t.Errorf("%s: phases %v, want %v", c.query, phases, c.phases)
		}
	}
}

// The ranked knobs are validated up front: unknown order variables map
// to bad_request through ErrBadOrder, negative limits and knobs on
// endpoints that cannot honor them are rejected before any work.
func TestRankKnobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := api.EvalRequest{Query: "Q(x,y) :- E(x,y)", Exact: true, Database: smokeDB}

	cases := []struct {
		name string
		path string
		body any
	}{
		{"unknown order var", "/v1/eval", func() any {
			r := base
			r.Order = []string{"nope"}
			return r
		}()},
		{"repeated order var", "/v1/eval", func() any {
			r := base
			r.Order = []string{"x", "x"}
			return r
		}()},
		{"negative limit", "/v1/eval", func() any {
			r := base
			r.Limit = -1
			return r
		}()},
		{"order on eval-bool", "/v1/eval/bool", func() any {
			r := base
			r.Order = []string{"x"}
			return r
		}()},
		{"limit on count", "/v1/count", func() any {
			r := base
			r.Limit = 2
			return api.CountRequest{EvalRequest: r}
		}()},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+c.path, c.body)
		var out api.ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || out.Error == nil || out.Error.Code != api.CodeBadRequest {
			t.Errorf("%s: status %d, body %+v, err %v", c.name, resp.StatusCode, out.Error, err)
		}
	}
}

// /v1/stream honors limit: the server delivers exactly k answer lines,
// stops the enumeration (never producing the rest of the large answer
// set), closes the stream cleanly with no error trailer, and leaks no
// goroutine.
func TestStreamLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var produced atomic.Int64
	s.onStreamAnswer = func(_ context.Context, n int) { produced.Store(int64(n)) }

	// Dedicated client: closing its idle connections later makes the
	// goroutine baseline comparison exact.
	tr := &http.Transport{}
	httpc := &http.Client{Transport: tr}
	baseline := runtime.NumGoroutine()

	req := longPathRequest()
	req.Limit = 5
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpc.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	lines := 0
	for {
		line, err := rd.ReadString('\n')
		if l := strings.TrimSpace(line); l != "" {
			if strings.HasPrefix(l, "{") {
				t.Fatalf("unexpected error trailer: %s", l)
			}
			lines++
		}
		if err != nil {
			break // EOF: the server closed the stream after the limit
		}
	}
	resp.Body.Close()
	if lines != 5 {
		t.Fatalf("stream delivered %d lines, want 5", lines)
	}
	waitFor(t, 10*time.Second, func() bool {
		return s.Stats().Endpoints["/v1/stream"].InFlight == 0
	})
	if n := produced.Load(); n != 5 {
		t.Fatalf("server produced %d answers past the limit of 5", n)
	}
	tr.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// A ranked stream delivers the key order on the wire, truncated at
// limit, and counts as a ranked evaluation.
func TestStreamRankedOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/stream", api.EvalRequest{
		Query: "Q(x,y,z) :- E(x,y), E(y,z)", Exact: true, Database: smokeDB,
		Order: []string{"z", "y", "x"}, Limit: 2,
	})
	defer resp.Body.Close()
	var got [][]int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "{") {
			t.Fatalf("unexpected error trailer: %s", line)
		}
		var tup []int
		if err := json.Unmarshal([]byte(line), &tup); err != nil {
			t.Fatal(err)
		}
		got = append(got, tup)
	}
	want := [][]int{{1, 2, 1}, {2, 2, 1}}
	if len(got) != len(want) {
		t.Fatalf("streamed %d answers, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("ranked stream = %v, want %v", got, want)
			}
		}
	}
	if st := s.Stats(); st.Cache.RankedEvals != 1 {
		t.Fatalf("ranked_evals = %d after ranked stream", st.Cache.RankedEvals)
	}
}
