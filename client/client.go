// Package client is the typed Go client for the cqapproxd HTTP API.
// It speaks exactly the wire types of package api, so anything the
// server can say, the client can decode — including the NDJSON answer
// stream and the stable error codes.
//
//	c := client.New("http://localhost:8080")
//	prep, err := c.Prepare(ctx, api.PrepareRequest{
//		Query: "Q(x) :- E(x,y), E(y,z), E(z,x)", Class: "TW1",
//	})
//	res, err := c.Eval(ctx, api.EvalRequest{Key: prep.Key, Database: db})
//
// Server-side failures surface as *client.APIError carrying the HTTP
// status and the decoded api.ErrorInfo.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"
	"sync"
	"time"

	"cqapprox/api"
)

// APIError is a non-2xx response decoded into the wire error envelope.
type APIError struct {
	Status int
	Info   api.ErrorInfo
}

func (e *APIError) Error() string {
	return fmt.Sprintf("cqapproxd: %s (%s, http %d)", e.Info.Message, e.Info.Code, e.Status)
}

// Client calls one cqapproxd server. The zero value is not usable;
// construct with New.
type Client struct {
	baseURL string
	http    *http.Client
}

// sharedTransport is the pooled keep-alive transport every client
// built by New shares. http.DefaultTransport caps idle connections at
// two per host — under scatter-gather fan-out (a coordinator hammering
// a handful of peers) that forces a fresh TCP handshake on nearly
// every call and, at load, exhausts ephemeral ports on TIME_WAIT
// sockets. One process-wide pool with a per-host allowance sized for
// fan-out traffic keeps coordinator→peer connections warm.
var sharedTransport = func() *http.Transport {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 128}
	}
	t = t.Clone()
	t.MaxIdleConns = 512
	t.MaxIdleConnsPerHost = 128
	return t
}()

// Options tunes a client built by NewWith. The zero value matches New.
type Options struct {
	// Transport replaces the shared pooled transport (test doubles,
	// custom TLS, per-cluster pools). Nil keeps the shared pool.
	Transport http.RoundTripper
	// Timeout is the whole-call timeout of the underlying http.Client.
	// Zero means no client-side timeout (per-request contexts and the
	// server's deadlines still apply).
	Timeout time.Duration
}

// New returns a client for the server at baseURL (scheme://host[:port],
// no trailing slash needed). All clients built by New share one pooled
// keep-alive transport; use NewWith or WithHTTPClient to replace it.
func New(baseURL string) *Client {
	return NewWith(baseURL, Options{})
}

// NewWith is New with explicit options.
func NewWith(baseURL string, opts Options) *Client {
	rt := opts.Transport
	if rt == nil {
		rt = sharedTransport
	}
	return &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		http:    &http.Client{Transport: rt, Timeout: opts.Timeout},
	}
}

// WithHTTPClient replaces the underlying *http.Client (timeouts,
// transports, test doubles).
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.http = h
	return c
}

// do posts body to path and decodes a 200 response into out (or any
// other status into an *APIError).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	bp := bodyPool.Get().(*bytes.Buffer)
	defer putBody(bp)
	data, err := readBody(bp, resp)
	if err != nil {
		return err
	}
	// The answer-bearing responses decode themselves; handing them to
	// json.Unmarshal would scan their rows once more before the call.
	if u, ok := out.(json.Unmarshaler); ok {
		return u.UnmarshalJSON(data)
	}
	return json.Unmarshal(data, out)
}

// bodyPool recycles the buffers response bodies are read into: decoded
// values never alias them. Buffers past 1 MiB are left to the
// collector.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(b *bytes.Buffer) {
	if b.Cap() <= 1<<20 {
		bodyPool.Put(b)
	}
}

// readBody reads resp's body to EOF into buf and returns its bytes.
// Reading to EOF matters beyond decoding: net/http reuses a keep-alive
// connection only once its last response was read to the end, and a
// decoder that stops after the JSON value leaves a chunked body's
// terminator unread.
func readBody(buf *bytes.Buffer, resp *http.Response) ([]byte, error) {
	buf.Reset()
	if resp.ContentLength > 0 {
		buf.Grow(int(resp.ContentLength))
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func decodeAPIError(resp *http.Response) error {
	var envelope api.ErrorResponse
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		err = json.Unmarshal(body, &envelope)
	}
	if err != nil || envelope.Error == nil {
		return &APIError{Status: resp.StatusCode, Info: api.ErrorInfo{
			Code: api.CodeInternal, Message: fmt.Sprintf("undecodable error body (http %d)", resp.StatusCode),
		}}
	}
	return &APIError{Status: resp.StatusCode, Info: *envelope.Error}
}

// Prepare runs (or cache-hits) the static pipeline on the server and
// returns the plan summary, including the Key for later evaluations.
func (c *Client) Prepare(ctx context.Context, req api.PrepareRequest) (*api.PrepareResponse, error) {
	var out api.PrepareResponse
	if err := c.do(ctx, http.MethodPost, "/v1/prepare", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Explain returns the server's EXPLAIN view of a prepared (by Key) or
// inline query: the structured static plan plus its stable text
// rendering. Explaining an inline query prepares it server-side (or
// hits the prepare cache); no database is involved.
func (c *Client) Explain(ctx context.Context, req api.ExplainRequest) (*api.ExplainResponse, error) {
	var out api.ExplainResponse
	if err := c.do(ctx, http.MethodPost, "/v1/explain", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterDB registers (or replaces) a named database snapshot on the
// server. Later Eval/EvalBool/Stream requests may name it via
// api.EvalRequest.DB instead of shipping the database inline; those
// evaluations run against the server-side snapshot's persistent shared
// indexes.
func (c *Client) RegisterDB(ctx context.Context, req api.RegisterDBRequest) (*api.RegisterDBResponse, error) {
	var out api.RegisterDBResponse
	if err := c.do(ctx, http.MethodPost, "/v1/db", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Eval evaluates a prepared (by Key) or inline query on the request's
// database (inline, or registered by name via req.DB) and returns the
// materialized answer set. Set req.Parallelism to ask for a
// morsel-driven parallel evaluation (clamped server-side to its
// max-parallelism cap; answers identical at any setting). Set
// req.Order/req.Descending for ranked answers and req.Limit for only
// the first k of the order (early termination server-side where the
// plan admits the key).
func (c *Client) Eval(ctx context.Context, req api.EvalRequest) (*api.EvalResponse, error) {
	var out api.EvalResponse
	if err := c.do(ctx, http.MethodPost, "/v1/eval", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Count returns the number of answers without materializing them.
// With req.Estimate the server runs the sampling estimator under the
// request's epsilon/delta/seed knobs instead of exact counting; the
// response says which mode actually ran (exact shortcuts apply when
// the plan counts exactly for free).
func (c *Client) Count(ctx context.Context, req api.CountRequest) (*api.CountResponse, error) {
	var out api.CountResponse
	if err := c.do(ctx, http.MethodPost, "/v1/count", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EvalBool reports answer existence only.
func (c *Client) EvalBool(ctx context.Context, req api.EvalRequest) (bool, error) {
	var out api.EvalBoolResponse
	if err := c.do(ctx, http.MethodPost, "/v1/eval/bool", req, &out); err != nil {
		return false, err
	}
	return out.Result, nil
}

// PeerRegisterDB pushes a shard slice (or a routed delta slice) of a
// sharded database to a peer node — the coordinator→peer half of the
// cluster protocol (POST /v1/peer/db). Not meant for end clients;
// peers store the slice under an internal shard-scoped name.
func (c *Client) PeerRegisterDB(ctx context.Context, req api.PeerDBRequest) (*api.RegisterDBResponse, error) {
	var out api.RegisterDBResponse
	if err := c.do(ctx, http.MethodPost, "/v1/peer/db", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PeerEval runs one scatter-gather leg on a peer node (POST
// /v1/peer/eval): evaluate the forwarded query against the peer's
// shard slice of req.DB, in the mode the request selects.
func (c *Client) PeerEval(ctx context.Context, req api.PeerEvalRequest) (*api.PeerEvalResponse, error) {
	var out api.PeerEvalResponse
	if err := c.do(ctx, http.MethodPost, "/v1/peer/eval", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the server's cache and endpoint counters.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stream evaluates like Eval but consumes the server's NDJSON stream:
// the returned sequence yields answers as the server produces them,
// without waiting for — or materializing — the full set. Breaking out
// of the loop (or cancelling ctx) closes the response body, which
// cancels the server-side enumeration. Call the second return after
// the loop: nil means the stream completed (or the consumer broke);
// otherwise it is the transport failure or the server's terminal error
// line (an *APIError, e.g. code "canceled" on a server-side deadline).
// Set req.Order/req.Descending to stream in ranked order; with
// req.Limit the server ends the stream after Limit answer lines.
func (c *Client) Stream(ctx context.Context, req api.EvalRequest) (iter.Seq[[]int], func() error) {
	var terminal error
	seq := func(yield func([]int) bool) {
		buf, err := json.Marshal(req)
		if err != nil {
			terminal = err
			return
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/stream", bytes.NewReader(buf))
		if err != nil {
			terminal = err
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(hreq)
		if err != nil {
			terminal = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			terminal = decodeAPIError(resp)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 16<<20)
		var flat []int // the backing the yielded tuples are cut from
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			if line[0] == '{' { // terminal error object from the server
				var envelope api.ErrorResponse
				if err := json.Unmarshal(line, &envelope); err == nil && envelope.Error != nil {
					terminal = &APIError{Status: http.StatusOK, Info: *envelope.Error}
				} else {
					terminal = fmt.Errorf("cqapproxd: undecodable stream trailer %q", line)
				}
				return
			}
			if cap(flat)-len(flat) < 64 {
				flat = make([]int, 0, 1024)
			}
			tup, grown, err := api.DecodeRow(line, flat)
			if err != nil {
				terminal = fmt.Errorf("cqapproxd: undecodable stream line %q: %w", line, err)
				return
			}
			flat = grown
			if !yield(tup) {
				return // consumer broke: Body.Close cancels the server
			}
		}
		terminal = sc.Err()
	}
	return seq, func() error { return terminal }
}

// Subscribe opens a live query over a registered database (req.DB):
// the returned sequence yields the init frame (the full answer set in
// Added), then one exact diff frame per server-side update batch until
// the consumer breaks, ctx is cancelled, or the server ends the
// subscription. Breaking out of the loop closes the response body,
// which tears the subscription down server-side. Call the second
// return after the loop: nil means a clean end; otherwise it is the
// transport failure or the server's terminal frame error (an
// *APIError — e.g. code "slow_consumer" when the server's disconnect
// policy dropped this consumer; re-subscribe for a fresh init frame).
func (c *Client) Subscribe(ctx context.Context, req api.SubscribeRequest) (iter.Seq[api.DiffFrame], func() error) {
	var terminal error
	seq := func(yield func(api.DiffFrame) bool) {
		buf, err := json.Marshal(req)
		if err != nil {
			terminal = err
			return
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/subscribe", bytes.NewReader(buf))
		if err != nil {
			terminal = err
			return
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(hreq)
		if err != nil {
			terminal = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			terminal = decodeAPIError(resp)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 16<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var f api.DiffFrame
			if err := f.UnmarshalJSON(line); err != nil {
				terminal = fmt.Errorf("cqapproxd: undecodable diff frame %q: %w", line, err)
				return
			}
			if f.Error != nil { // terminal frame: the server ended the subscription
				terminal = &APIError{Status: http.StatusOK, Info: *f.Error}
				return
			}
			if !yield(f) {
				return // consumer broke: Body.Close tears the subscription down
			}
		}
		terminal = sc.Err()
	}
	return seq, func() error { return terminal }
}
