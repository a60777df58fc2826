package client_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/server"
)

// unsized sends every response without a Content-Length, so net/http
// chunks any body past its 2 KiB buffer, as it does for streamed or
// proxied bodies.
type unsized struct{ http.ResponseWriter }

func (w unsized) WriteHeader(status int) {
	w.Header().Del("Content-Length")
	w.ResponseWriter.WriteHeader(status)
}

// countingServer starts a cqapproxd test server that counts the TCP
// connections its clients open.
func countingServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	h := server.New(cqapprox.NewEngine(), server.Config{}).Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(unsized{w}, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

// Large chunked responses leave the keep-alive connection reusable:
// the client reads every body to EOF, on success and on error, so
// sequential calls share one connection.
func TestKeepAliveAcrossLargeResponses(t *testing.T) {
	ts, conns := countingServer(t)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := client.NewWith(ts.URL, client.Options{Transport: tr})
	ctx := context.Background()

	database := api.Database{}
	for i := 0; i < 2000; i++ {
		database["E"] = append(database["E"], []int{i, i + 1})
	}
	if _, err := c.RegisterDB(ctx, api.RegisterDBRequest{Name: "g", Database: database}); err != nil {
		t.Fatal(err)
	}
	req := api.EvalRequest{Query: "Q(x,y) :- E(x,y)", Exact: true, DB: "g"}
	for i := 0; i < 50; i++ {
		res, err := c.Eval(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != 2000 {
			t.Fatalf("%d answers, want 2000", len(res.Answers))
		}
		// A large error response in between (the unknown name is
		// echoed in the message) must not cost the connection either.
		var apiErr *client.APIError
		if _, err := c.Eval(ctx, api.EvalRequest{Query: "Q(x) :- E(x,y)", Exact: true, DB: strings.Repeat("n", 60000)}); !errors.As(err, &apiErr) || apiErr.Info.Code != api.CodeUnknownDB {
			t.Fatalf("want an unknown_db APIError, got %v", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("100 sequential calls opened %d connections, want 1", n)
	}
}
