package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/server"
	"cqapprox/internal/workload"
)

// serve_oltp: two client goroutines drive a loopback HTTP server over
// small registered databases.

const (
	serveDBs   = 16 // registered databases
	serveNodes = 40 // nodes per database
)

const (
	opEval   = iota // eval by registered name
	opBool          // /v1/eval/bool by name
	opCount         // exact /v1/count by name
	opInline        // eval shipping the database inline
)

// serveBlock is the op multiset of one 20-op block.
var serveBlock = []int{
	opEval, opEval, opEval, opEval, opEval, opEval, opEval,
	opEval, opEval, opEval, opEval, opEval, opEval, opEval,
	opBool, opBool, opCount, opCount, opInline, opInline,
}

type serveQuery struct {
	text  string
	class string // "" for exact
	q     *cqapprox.Query
}

type serveOp struct{ kind, q, d int }

type serveBench struct {
	eng     *cqapprox.Engine
	srv     *server.Server
	ts      *httptest.Server
	tr      *http.Transport
	cl      *client.Client
	wire    []api.Database
	queries []serveQuery
	ops     []serveOp
	outs    []answerPrint

	// Traced mode: handler time measured by a middleware around the
	// server's handler.
	tracing       atomic.Bool
	handlerNS, hN atomic.Int64
	stats0        api.StatsResponse
}

func serveQueries() []serveQuery {
	var qs []serveQuery
	for _, q := range workload.QuerySuite() {
		qs = append(qs, serveQuery{text: queryText(q), class: "TW1", q: q})
	}
	for _, src := range []string{
		"Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)",
		"Q(x,z) :- E(x,y), E(y,z)",
		"Q(x,y,z) :- E(x,y), E(y,z)",
	} {
		qs = append(qs, serveQuery{text: src, q: cqapprox.MustParse(src)})
	}
	return qs
}

func (s *serveBench) name(d int) string { return fmt.Sprintf("g%d", d) }

func setupServe(seed int64, nOps, phases int, traced bool) (instance, error) {
	ctx := context.Background()
	s := &serveBench{eng: cqapprox.NewEngine(), queries: serveQueries()}
	s.srv = server.New(s.eng, server.Config{}) // no Logger: request logging off
	var h http.Handler = s.srv.Handler()
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !s.tracing.Load() {
				inner.ServeHTTP(w, r)
				return
			}
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			s.handlerNS.Add(time.Since(t0).Nanoseconds())
			s.hN.Add(1)
		})
	}
	s.ts = httptest.NewServer(h)
	s.tr = http.DefaultTransport.(*http.Transport).Clone()
	s.tr.MaxConnsPerHost, s.tr.MaxIdleConnsPerHost = 2, 2
	s.cl = client.NewWith(s.ts.URL, client.Options{Transport: s.tr})

	// The graphs are fixed, like the op multiset: with seeded graphs the
	// cost of the mix, and the set-up time, moved with the seed.
	dbRng := rand.New(rand.NewSource(40))
	for d := 0; d < serveDBs; d++ {
		db := workload.RandomSocial(dbRng, serveNodes, 3, 0.3)
		tern := workload.RandomTernary(dbRng, serveNodes, 2*serveNodes)
		db.Declare("R", 3)
		for _, t := range tern.Tuples("R") {
			db.Add("R", t...)
		}
		w := api.Database{}
		for _, rel := range db.Relations() {
			for _, t := range db.Tuples(rel) {
				w[rel] = append(w[rel], []int(t))
			}
		}
		s.wire = append(s.wire, w)
		if _, err := s.cl.RegisterDB(ctx, api.RegisterDBRequest{Name: s.name(d), Database: w}); err != nil {
			s.close()
			return nil, err
		}
	}
	// Per op kind, the ops cycle through every (query, database) pair;
	// the seed orders the ops within each block.
	rng := rand.New(rand.NewSource(seed))
	total := nOps * phases
	var next [opInline + 1]int
	for len(s.ops) < total {
		for _, k := range rng.Perm(len(serveBlock)) {
			kind := serveBlock[k]
			n := next[kind]
			next[kind]++
			s.ops = append(s.ops, serveOp{kind: kind, q: n % len(s.queries), d: n / len(s.queries) % serveDBs})
		}
	}
	s.outs = make([]answerPrint, total)
	// Warm every plan and every registered snapshot's indexes.
	for q := range s.queries {
		for d := 0; d < serveDBs; d++ {
			if _, err := s.cl.Eval(ctx, s.evalReq(serveOp{kind: opEval, q: q, d: d})); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *serveBench) evalReq(op serveOp) api.EvalRequest {
	q := s.queries[op.q]
	req := api.EvalRequest{Query: q.text, Class: q.class, Exact: q.class == ""}
	if op.kind == opInline {
		req.Database = s.wire[op.d]
	} else {
		req.DB = s.name(op.d)
	}
	return req
}

func (s *serveBench) workers() int { return 2 }

func (s *serveBench) heldBytes() int { return sliceBytes(s.ops) + sliceBytes(s.outs) }

func (s *serveBench) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
}

func (s *serveBench) begin(traced bool) {
	s.tracing.Store(traced)
	s.stats0 = s.srv.Stats()
}

func (s *serveBench) do(i int, traced bool) error {
	ctx := context.Background()
	op := s.ops[i]
	req := s.evalReq(op)
	switch op.kind {
	case opBool:
		ok, err := s.cl.EvalBool(ctx, req)
		s.outs[i] = boolPrint(ok)
		return err
	case opCount:
		res, err := s.cl.Count(ctx, api.CountRequest{EvalRequest: req})
		if err != nil {
			return err
		}
		s.outs[i] = countPrint(res.Count)
	default:
		res, err := s.cl.Eval(ctx, req)
		if err != nil {
			return err
		}
		s.outs[i] = printOf(res.Answers)
	}
	return nil
}

func (s *serveBench) check() []int {
	ctx := context.Background()
	refs := newRefCache()
	approx := make([]*cqapprox.Query, len(s.queries))
	for k, q := range s.queries {
		approx[k] = q.q
		if q.class != "" {
			// The reference evaluates the approximation the engine chose.
			p, err := s.eng.Prepare(ctx, q.q, cqapprox.TW(1))
			if err != nil {
				return allOps(len(s.ops))
			}
			approx[k] = p.Approx()
		}
	}
	// The reference databases are rebuilt from the wire form the client
	// registered, so the run holds no second copy of them.
	dbs := make([]*cqapprox.Structure, len(s.wire))
	for d, w := range s.wire {
		db, err := w.ToStructure()
		if err != nil {
			return allOps(len(s.ops))
		}
		dbs[d] = db
	}
	var bad []int
	for i, op := range s.ops {
		ref := refs.naive(fmt.Sprintf("%d/%d", op.q, op.d), approx[op.q], dbs[op.d])
		want := ref
		switch op.kind {
		case opBool:
			want = boolPrint(ref.n > 0)
		case opCount:
			want = countPrint(uint64(ref.n))
		}
		if s.outs[i] != want {
			bad = append(bad, i)
		}
	}
	return bad
}

// replay re-runs, one stage at a time, the library calls the server
// makes for each op of the first traced ops, on identical inputs, and
// returns each stage's mean time per op in µs plus the allocations per
// op of the exec and wire stages.
func (s *serveBench) replay(first, n int) (map[string]float64, error) {
	ctx := context.Background()
	n = min(n, 4000)
	ops := s.ops[first : first+n]
	bodies := make([][]byte, n)
	for k, op := range ops {
		var v any = s.evalReq(op)
		if op.kind == opCount {
			v = api.CountRequest{EvalRequest: s.evalReq(op)}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		bodies[k] = b
	}
	out := map[string]float64{}
	stage := func(name string, f func(k int, op serveOp) error) error {
		t0 := time.Now()
		for k, op := range ops {
			if err := f(k, op); err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
		}
		out[name] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
		return nil
	}
	var (
		qs    = make([]*cqapprox.Query, n)
		ps    = make([]*cqapprox.PreparedQuery, n)
		dbs   = make([]*cqapprox.Database, n)
		raws  = make([]*cqapprox.Structure, n)
		bound = make([]*cqapprox.BoundQuery, n)
		anss  = make([]cqapprox.Answers, n)
		oks   = make([]bool, n)
		cnts  = make([]*cqapprox.CountResult, n)
		rows  = make([][][]int, n)
	)
	opt := s.eng.Options()
	steps := []struct {
		name string
		f    func(k int, op serveOp) error
	}{
		{"api.decode_us", func(k int, op serveOp) error {
			if op.kind == opCount {
				var r api.CountRequest
				return json.NewDecoder(bytes.NewReader(bodies[k])).Decode(&r)
			}
			var r api.EvalRequest
			return json.NewDecoder(bytes.NewReader(bodies[k])).Decode(&r)
		}},
		{"cq.parse_us", func(k int, op serveOp) (err error) {
			qs[k], err = cqapprox.Parse(s.queries[op.q].text)
			return err
		}},
		{"engine.lookup_us", func(k int, op serveOp) error {
			var c cqapprox.Class
			if s.queries[op.q].class != "" {
				c = cqapprox.TW(1)
			}
			key, err := s.eng.CacheKey(qs[k], c, opt)
			if err != nil {
				return err
			}
			p, ok := s.eng.Cached(key)
			if !ok {
				return fmt.Errorf("plan of %s not cached", s.queries[op.q].text)
			}
			ps[k] = p
			return nil
		}},
		{"engine.db_resolve_us", func(k int, op serveOp) (err error) {
			if op.kind == opInline {
				raws[k], err = s.wire[op.d].ToStructure()
				return err
			}
			var ok bool
			if dbs[k], ok = s.eng.DB(s.name(op.d)); !ok {
				return fmt.Errorf("db %s not registered", s.name(op.d))
			}
			return nil
		}},
		{"engine.bind_us", func(k int, op serveOp) error {
			if op.kind != opInline {
				bound[k] = ps[k].Bind(dbs[k])
			}
			return nil
		}},
		{"eval.exec_us", func(k int, op serveOp) (err error) {
			switch op.kind {
			case opInline:
				anss[k], err = ps[k].Eval(ctx, raws[k])
			case opBool:
				oks[k], err = bound[k].EvalBool(ctx)
			case opCount:
				cnts[k], err = bound[k].Count(ctx)
			default:
				anss[k], err = bound[k].Eval(ctx)
			}
			return err
		}},
		{"api.wire_us", func(k int, op serveOp) error {
			if op.kind == opEval || op.kind == opInline {
				rows[k] = api.FromAnswers(anss[k])
			}
			return nil
		}},
		{"api.encode_us", func(k int, op serveOp) error {
			var v any
			switch op.kind {
			case opBool:
				v = api.EvalBoolResponse{Result: oks[k]}
			case opCount:
				v = api.CountResponse{Count: cnts[k].Count, Estimate: cnts[k].Estimate, Mode: cnts[k].Mode}
			default:
				v = api.EvalResponse{Answers: rows[k], Count: len(rows[k])}
			}
			return json.NewEncoder(io.Discard).Encode(v)
		}},
	}
	for _, st := range steps {
		var err error
		allocs := allocsDuring(func() { err = stage(st.name, st.f) })
		if err != nil {
			return nil, err
		}
		switch st.name {
		case "eval.exec_us":
			out["eval.exec_allocs"] = float64(allocs) / float64(n)
		case "api.wire_us":
			out["api.wire_allocs"] = float64(allocs) / float64(n)
		}
	}
	return out, nil
}

func (s *serveBench) layers(p *phase) []metric {
	st := s.srv.Stats()
	hits := float64(st.Cache.Hits - s.stats0.Cache.Hits)
	misses := float64(st.Cache.Misses - s.stats0.Cache.Misses)
	var rejects int64
	for name, ep := range st.Endpoints {
		rejects += ep.Rejected - s.stats0.Endpoints[name].Rejected
	}
	handler := ratio(float64(s.handlerNS.Load())/1e3, float64(s.hN.Load()))
	ms := []metric{
		{"server.handler_us", handler, "us"},
		{"client.transport_us", meanUS(p.lat) - handler, "us"},
		{"engine.cache_hit_ratio", ratio(hits, hits+misses), "fraction"},
		{"server.admission_rejects", float64(rejects), "count"},
		{"runtime.gc_cpu_frac", p.gcCPU, "fraction"},
	}
	stages, err := s.replay(p.first, p.n)
	if err != nil {
		fmt.Println("# replay failed:", err)
		return ms
	}
	glue := handler
	for _, name := range []string{"api.decode_us", "cq.parse_us", "engine.lookup_us", "engine.db_resolve_us", "engine.bind_us", "eval.exec_us", "api.wire_us", "api.encode_us"} {
		glue -= stages[name]
		ms = append(ms, metric{name, stages[name], "us"})
	}
	ms = append(ms,
		metric{"server.glue_us", glue, "us"},
		metric{"eval.exec_allocs", stages["eval.exec_allocs"], "count"},
		metric{"api.wire_allocs", stages["api.wire_allocs"], "count"},
	)
	return ms
}
