package server

// Byte-for-byte goldens of every answer-bearing wire surface besides
// /v1/eval's (TestEndpointGolden): /v1/stream lines with the terminal
// error line, /v1/subscribe frames, /v1/peer/eval bodies, and request
// decoding of inline databases, tricky values and type errors. The
// bodies were captured from the encoding/json writers the hand-written
// rows codec replaced, so they pin its byte identity, trailing newlines
// included.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// postRaw posts body and returns the status and the body's exact bytes.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
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
	return resp.StatusCode, string(b)
}

func TestWireGoldenEvalValues(t *testing.T) {
	steps := []struct {
		name, path, body string
		wantStatus       int
		wantBody         string
	}{
		{
			name:       "extreme and negative values",
			path:       "/v1/eval",
			body:       `{"query":"Q(x,y) :- E(x,y)","exact":true,"database":{"E":[[-9223372036854775808,9223372036854775807],[-1,0],[ -0 , 12 ]]}}`,
			wantStatus: 200,
			wantBody:   "{\"answers\":[[-9223372036854775808,9223372036854775807],[-1,0],[0,12]],\"count\":3}\n",
		},
		{
			name:       "boolean query answers one empty tuple",
			path:       "/v1/eval",
			body:       `{"query":"Q() :- E(x,x)","exact":true,"database":{"E":[[1,1]]}}`,
			wantStatus: 200,
			wantBody:   "{\"answers\":[[]],\"count\":1}\n",
		},
		{
			name:       "false boolean query answers nothing",
			path:       "/v1/eval",
			body:       `{"query":"Q() :- E(x,x)","exact":true,"database":{"E":[[1,2]]}}`,
			wantStatus: 200,
			wantBody:   "{\"answers\":[],\"count\":0}\n",
		},
		{
			name:       "whitespace and null relation",
			path:       "/v1/eval",
			body:       "{\"query\":\"Q(x) :- E(x,y)\",\"exact\":true,\"database\":{\"E\" : [ [ 3 , 4 ]\t,\n[5,6] ],\"F\":null}}",
			wantStatus: 200,
			wantBody:   "{\"answers\":[[3],[5]],\"count\":2}\n",
		},
		{
			name:       "string value",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,"x"]]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal string into Go struct field EvalRequest.database of type int\"}}\n",
		},
		{
			name:       "float value",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,2.5]]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal number 2.5 into Go struct field EvalRequest.database of type int\"}}\n",
		},
		{
			name:       "exponent value",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,2e1]]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal number 2e1 into Go struct field EvalRequest.database of type int\"}}\n",
		},
		{
			name:       "overflowing value",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,9223372036854775808]]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal number 9223372036854775808 into Go struct field EvalRequest.database of type int\"}}\n",
		},
		{
			name:       "relation is not an array",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":7}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal number into Go struct field EvalRequest.database of type [][]int\"}}\n",
		},
		{
			name:       "tuple is an object",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[{"a":1}]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal object into Go struct field EvalRequest.database of type []int\"}}\n",
		},
		{
			name:       "value is an array",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[[1],2]]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal array into Go struct field EvalRequest.database of type int\"}}\n",
		},
		{
			name:       "bool tuple after a valid one",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[1,2],true]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal bool into Go struct field EvalRequest.database of type []int\"}}\n",
		},
		{
			name:       "null tuple",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[null]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"database: relation \\\"E\\\" tuple 0 is empty\"}}\n",
		},
		{
			name:       "null value reads as zero",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[null,7]]}}`,
			wantStatus: 200,
			wantBody:   "{\"answers\":[[0]],\"count\":1}\n",
		},
		{
			name:       "leading zero",
			path:       "/v1/eval",
			body:       `{"query":"Q(x) :- E(x,y)","exact":true,"database":{"E":[[01,2]]}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: invalid character '1' after array element\"}}\n",
		},
		{
			name:       "delta with a string value",
			path:       "/v1/db",
			body:       `{"name":"g","delta":{"insert":{"E":[["1",2]]}}}`,
			wantStatus: 400,
			wantBody:   "{\"error\":{\"code\":\"bad_request\",\"message\":\"decoding request body: json: cannot unmarshal string into Go struct field DeltaChange.delta.insert of type int\"}}\n",
		},
	}
	_, ts := newTestServer(t, Config{})
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			status, body := postRaw(t, ts, step.path, step.body)
			if status != step.wantStatus || body != step.wantBody {
				t.Fatalf("got %d %q\nwant %d %q", status, body, step.wantStatus, step.wantBody)
			}
		})
	}
}

// /v1/stream writes one array line per answer; a deadline that expires
// mid-stream ends the body with an error object line.
func TestWireGoldenStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body := postRaw(t, ts, "/v1/stream", `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"database":{"E":[[-1,2],[2,-3],[2,9223372036854775807]]}}`)
	if want := "[-1,-3]\n[-1,9223372036854775807]\n"; status != 200 || body != want {
		t.Fatalf("stream: got %d %q, want 200 %q", status, body, want)
	}
	status, body = postRaw(t, ts, "/v1/stream", `{"query":"Q() :- E(x,x)","exact":true,"database":{"E":[[1,1]]}}`)
	if want := "[]\n"; status != 200 || body != want {
		t.Fatalf("boolean stream: got %d %q, want 200 %q", status, body, want)
	}

	s.onStreamAnswer = func(ctx context.Context, n int) {
		if n == 2 {
			<-ctx.Done() // outlive the request deadline
		}
	}
	status, body = postRaw(t, ts, "/v1/stream", `{"query":"Q(x,z) :- E(x,y), E(y,z)","exact":true,"timeout_ms":50,"database":{"E":[[1,2],[2,3],[3,4],[4,5]]}}`)
	want := "[1,3]\n[2,4]\n{\"error\":{\"code\":\"canceled\",\"message\":\"canceled: context deadline exceeded\"}}\n"
	if status != 200 || body != want {
		t.Fatalf("truncated stream: got %d %q, want 200 %q", status, body, want)
	}
}

// frameReader reads raw NDJSON lines off an open /v1/subscribe stream.
type frameReader struct {
	rd *bufio.Reader
}

func openFrames(t *testing.T, ts *httptest.Server, body string) *frameReader {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/subscribe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, b)
	}
	return &frameReader{rd: bufio.NewReader(resp.Body)}
}

// line returns the next frame line, trailing newline included.
func (f *frameReader) line(t *testing.T) string {
	t.Helper()
	ch := make(chan string, 1)
	go func() {
		l, _ := f.rd.ReadString('\n')
		ch <- l
	}()
	select {
	case l := <-ch:
		return l
	case <-time.After(10 * time.Second):
		t.Fatal("no frame within 10s")
	}
	panic("unreachable")
}

// /v1/subscribe frames: init, an insert diff, a delete diff, and a
// replacement's fallback frame.
func TestWireGoldenSubscribe(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v0 := registerDB(t, ts, "g", `{"E":[[1,2],[-5,2],[3,4],[2,0]]}`)
	fr := openFrames(t, ts, `{"query":"Q(x,y) :- E(x,y), E(y,z)","exact":true,"db":"g"}`)
	if got, want := fr.line(t), fmt.Sprintf("{\"version\":%d,\"added\":[[-5,2],[1,2]],\"init\":true}\n", v0); got != want {
		t.Fatalf("init frame:\n got %q\nwant %q", got, want)
	}
	v1 := applyDelta(t, ts, "g", `{"insert":{"E":[[4,9],[0,1]]}}`)
	if got, want := fr.line(t), fmt.Sprintf("{\"version\":%d,\"added\":[[0,1],[2,0],[3,4]]}\n", v1); got != want {
		t.Fatalf("insert frame:\n got %q\nwant %q", got, want)
	}
	v2 := applyDelta(t, ts, "g", `{"delete":{"E":[[1,2]]}}`)
	if got, want := fr.line(t), fmt.Sprintf("{\"version\":%d,\"removed\":[[0,1],[1,2]]}\n", v2); got != want {
		t.Fatalf("delete frame:\n got %q\nwant %q", got, want)
	}
	v3 := registerDB(t, ts, "g", `{"E":[[7,8],[8,8]]}`)
	if got, want := fr.line(t), fmt.Sprintf("{\"version\":%d,\"added\":[[7,8],[8,8]],\"removed\":[[-5,2],[2,0],[3,4]],\"fallback\":true,\"reason\":\"full replacement\"}\n", v3); got != want {
		t.Fatalf("replacement frame:\n got %q\nwant %q", got, want)
	}
}

// A queue overflow under the resync policy sends the full answer set
// in a resync frame.
func TestWireGoldenSubscribeResync(t *testing.T) {
	s, ts := newTestServer(t, Config{SubscriberQueue: -1}) // queue depth 1
	parked, release := park(s)
	registerDB(t, ts, "g", `{"E":[[1,2]]}`)
	fr := openFrames(t, ts, subBody)
	fr.line(t) // init
	<-parked
	applyDelta(t, ts, "g", `{"insert":{"E":[[3,4]]}}`)  // fills the queue
	applyDelta(t, ts, "g", `{"insert":{"E":[[-4,5]]}}`) // overflows
	v := applyDelta(t, ts, "g", `{"insert":{"E":[[5,6]]}}`)
	close(release)
	if got, want := fr.line(t), fmt.Sprintf("{\"version\":%d,\"added\":[[-4],[1],[3],[5]],\"resync\":true}\n", v); got != want {
		t.Fatalf("resync frame:\n got %q\nwant %q", got, want)
	}
}

// A subscriber the disconnect policy drops gets a terminal frame with
// the error and no rows. The queued update may be delivered first.
func TestWireGoldenSubscribeSlowConsumer(t *testing.T) {
	s, ts := newTestServer(t, Config{SubscriberQueue: -1, SlowConsumerPolicy: SlowConsumerDisconnect})
	parked, release := park(s)
	v := registerDB(t, ts, "g", `{"E":[[1,2]]}`)
	fr := openFrames(t, ts, subBody)
	fr.line(t) // init
	<-parked
	v1 := applyDelta(t, ts, "g", `{"insert":{"E":[[3,4]]}}`) // fills the queue
	applyDelta(t, ts, "g", `{"insert":{"E":[[4,5]]}}`)       // overflows: kick
	close(release)
	got := fr.line(t)
	if want := fmt.Sprintf("{\"version\":%d,\"added\":[[3]]}\n", v1); got == want {
		v, got = v1, fr.line(t)
	}
	want := fmt.Sprintf("{\"version\":%d,\"error\":{\"code\":\"slow_consumer\",\"message\":\"subscriber fell behind the update stream and the server is configured to disconnect slow consumers; re-subscribe for a fresh init frame\"}}\n", v)
	if got != want {
		t.Fatalf("slow-consumer frame:\n got %q\nwant %q", got, want)
	}
}

// /v1/peer/eval bodies of every mode, on a two-node cluster's shard
// slices. Which shard holds a tuple depends on the nodes' addresses, so
// the expected bodies are spelled out from each node's slice of E.
func TestWireGoldenPeerEval(t *testing.T) {
	servers, tss := startTestCluster(t, 2, 3)
	if status, body := postRaw(t, tss[0], "/v1/db", `{"name":"d","database":{"E":[[1,2],[2,3],[3,4],[4,5],[5,6],[6,-7]],"R":[[2,0]]}}`); status != 200 {
		t.Fatalf("register: %s", body)
	}
	for i, ts := range tss {
		d, ok := servers[i].eng.DB(shardDBName("d"))
		if !ok {
			t.Fatalf("node %d holds no shard slice", i)
		}
		shard := d.Contents().Tuples("E")
		slices.SortFunc(shard, slices.Compare)
		var rows, joined []string
		for _, tu := range shard {
			rows = append(rows, fmt.Sprintf("[%d,%d]", tu[0], tu[1]))
			if tu[1] == 2 { // R holds (2,0) only
				joined = append(joined, fmt.Sprintf("[%d,%d]", tu[0], tu[1]))
			}
		}
		answers := func(rows []string) string {
			if len(rows) == 0 {
				return "{}\n"
			}
			return "{\"answers\":[" + strings.Join(rows, ",") + "]}\n"
		}
		count := "{\"mode\":\"exact-dp\"}\n" // zero counts are omitted
		if n := len(shard); n > 0 {
			count = fmt.Sprintf("{\"count\":%d,\"estimate\":%d,\"mode\":\"exact-dp\"}\n", n, n)
		}
		steps := []struct{ name, body, want string }{
			{"eval", `{"query":"Q(x,y) :- E(x,y)","exact":true,"db":"d","mode":"eval"}`, answers(rows)},
			{"eval empty", `{"query":"Q(x) :- E(x,x)","exact":true,"db":"d","mode":"eval"}`, "{}\n"},
			{"eval joined with a replicated relation", `{"query":"Q(x,y) :- E(x,y), R(y,z)","exact":true,"db":"d","mode":"eval"}`, answers(joined)},
			{"bool", `{"query":"Q() :- E(x,x)","exact":true,"db":"d","mode":"bool"}`, "{}\n"},
			{"count", `{"query":"Q(x,y) :- E(x,y)","exact":true,"db":"d","mode":"count"}`, count},
		}
		if len(shard) > 0 {
			steps = append(steps, struct{ name, body, want string }{"bool true", `{"query":"Q() :- E(x,y)","exact":true,"db":"d","mode":"bool"}`, "{\"result\":true}\n"})
		}
		for _, st := range steps {
			status, body := postRaw(t, ts, "/v1/peer/eval", st.body)
			if status != 200 || body != st.want {
				t.Errorf("%s on node %d: got %d %q, want 200 %q", st.name, i, status, body, st.want)
			}
		}
	}
}
