package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/server"
	"cqapprox/internal/workload"
)

// update_live: one writer connection posts deltas to a registered
// EvalBenchDB(3000) while one subscriber connection maintains chain3
// through /v1/subscribe.

const (
	liveDB          = "live"
	liveChain       = "Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)"
	liveCheckpoints = 4 // checked subscriber states per phase, the last at its end
)

// liveBase builds the database the workload starts from. It is
// deterministic, so the reference replays rebuild it instead of the
// benchmark holding a second copy through the run.
var liveBase = func() *cqapprox.Structure { return workload.EvalBenchDB(3000) }

var liveRead = queryText(workload.CycleQueryFree(4)) // read after each write, approximated into TW1

type edge [2]int

// updOp inserts one absent edge, deletes one present edge, then reads.
type updOp struct{ ins, del edge }

// frameEvent is what the subscriber hands the writer per diff frame:
// the frame's version and the subscriber's answer set after it.
type frameEvent struct {
	version uint64
	state   answerPrint
}

type updateBench struct {
	eng        *cqapprox.Engine
	srv        *server.Server
	ts         *httptest.Server
	wtr, str   *http.Transport
	writer     *client.Client
	ops        []updOp
	frames     chan frameEvent
	stop       context.CancelFunc
	subDone    chan error
	outs       []answerPrint // read-after-write answers
	subState   []answerPrint // subscriber state after each op
	checkpoint map[int]bool

	// Per-op timings of the writer's steps, for the traced phase.
	ack, lag, read []time.Duration
	stats0         api.StatsResponse
}

func setupUpdate(seed int64, nOps, phases int, traced bool) (instance, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	u := &updateBench{eng: cqapprox.NewEngine()}
	raw := liveBase()
	total := nOps * phases
	u.genOps(rng, raw, total)
	u.checkpoint = map[int]bool{}
	for ph := 0; ph < phases; ph++ {
		for c := 1; c <= liveCheckpoints; c++ {
			u.checkpoint[ph*nOps+c*nOps/liveCheckpoints-1] = true
		}
	}
	u.outs = make([]answerPrint, total)
	u.subState = make([]answerPrint, total)
	u.ack = make([]time.Duration, total)
	u.lag = make([]time.Duration, total)
	u.read = make([]time.Duration, total)

	u.srv = server.New(u.eng, server.Config{CoalesceWindow: 0})
	u.ts = httptest.NewServer(u.srv.Handler())
	conn := func() (*http.Transport, *client.Client) {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxConnsPerHost, t.MaxIdleConnsPerHost = 1, 1
		return t, client.NewWith(u.ts.URL, client.Options{Transport: t})
	}
	var sub *client.Client
	u.wtr, u.writer = conn()
	u.str, sub = conn()
	w := api.Database{}
	for _, rel := range raw.Relations() {
		for _, t := range raw.Tuples(rel) {
			w[rel] = append(w[rel], []int(t))
		}
	}
	if _, err := u.writer.RegisterDB(ctx, api.RegisterDBRequest{Name: liveDB, Database: w}); err != nil {
		u.close()
		return nil, err
	}

	subCtx, stop := context.WithCancel(ctx)
	u.stop = stop
	u.frames = make(chan frameEvent, 1)
	u.subDone = make(chan error, 1)
	go func() {
		seq, errf := sub.Subscribe(subCtx, api.SubscribeRequest{Query: liveChain, Exact: true, DB: liveDB})
		var st answerPrint
		for f := range seq {
			if f.Init || f.Resync {
				st = answerPrint{}
			}
			for _, r := range f.Removed {
				st.n--
				st.sum -= tupleHash(r)
			}
			for _, r := range f.Added {
				st.n++
				st.sum += tupleHash(r)
			}
			u.frames <- frameEvent{version: f.Version, state: st}
		}
		u.subDone <- errf()
		close(u.frames)
	}()
	if _, ok := <-u.frames; !ok { // the init frame
		err := <-u.subDone
		u.close()
		return nil, fmt.Errorf("subscribe: %v", err)
	}
	// Warm the read path's plan and indexes.
	if _, err := u.writer.Eval(ctx, api.EvalRequest{Query: liveRead, Class: "TW1", DB: liveDB}); err != nil {
		u.close()
		return nil, err
	}
	return u, nil
}

// genOps draws the op sequence: each op inserts an edge absent at that
// point and deletes a present one, so E keeps its size.
func (u *updateBench) genOps(rng *rand.Rand, raw *cqapprox.Structure, total int) {
	n := 3000
	present := map[edge]bool{}
	var edges []edge
	for _, t := range raw.Tuples("E") {
		e := edge{t[0], t[1]}
		present[e] = true
		edges = append(edges, e)
	}
	for len(u.ops) < total {
		ins := edge{rng.Intn(n), rng.Intn(n)}
		if ins[0] == ins[1] || present[ins] {
			continue
		}
		k := rng.Intn(len(edges))
		del := edges[k]
		edges[k] = ins
		delete(present, del)
		present[ins] = true
		u.ops = append(u.ops, updOp{ins: ins, del: del})
	}
}

func (u *updateBench) workers() int { return 1 }

func (u *updateBench) heldBytes() int {
	return sliceBytes(u.ops) + sliceBytes(u.outs) + sliceBytes(u.subState) +
		sliceBytes(u.ack) + sliceBytes(u.lag) + sliceBytes(u.read)
}

func (u *updateBench) close() {
	if u.stop != nil {
		u.stop()
		for range u.frames { // drain until the subscriber exits
		}
	}
	if u.ts != nil {
		u.ts.Close()
	}
	for _, t := range []*http.Transport{u.wtr, u.str} {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
}

func (u *updateBench) begin(traced bool) { u.stats0 = u.srv.Stats() }

// write posts one delta and waits for its diff frame.
func (u *updateBench) write(i int, d *api.DeltaChange) (frameEvent, error) {
	t0 := time.Now()
	res, err := u.writer.RegisterDB(context.Background(), api.RegisterDBRequest{Name: liveDB, Delta: d})
	if err != nil {
		return frameEvent{}, err
	}
	t1 := time.Now()
	u.ack[i] += t1.Sub(t0)
	ev, ok := <-u.frames
	u.lag[i] += time.Since(t1)
	if !ok {
		return ev, errors.New("subscription ended")
	}
	if ev.version != res.Version {
		return ev, fmt.Errorf("diff frame for version %d, want %d", ev.version, res.Version)
	}
	return ev, nil
}

func (u *updateBench) do(i int, traced bool) error {
	op := u.ops[i]
	if _, err := u.write(i, &api.DeltaChange{Insert: api.Database{"E": {op.ins[:]}}}); err != nil {
		return err
	}
	ev, err := u.write(i, &api.DeltaChange{Delete: api.Database{"E": {op.del[:]}}})
	if err != nil {
		return err
	}
	u.subState[i] = ev.state
	t0 := time.Now()
	res, err := u.writer.Eval(context.Background(), api.EvalRequest{Query: liveRead, Class: "TW1", DB: liveDB})
	u.read[i] = time.Since(t0)
	if err != nil {
		return err
	}
	u.outs[i] = printOf(res.Answers)
	return nil
}

// check replays the ops on a fresh copy of the initial database. After
// every op it compares the read-after-write answers with a reference
// evaluation of the read's approximation. At each checkpoint it also
// compares the subscriber's accumulated answer set with a reference
// evaluation of chain3; that set sums every diff frame before it, so a
// wrong frame in between shows there too. Two goroutines check half of
// the ops each.
func (u *updateBench) check() []int {
	p, err := cqapprox.NewEngine().Prepare(context.Background(), cqapprox.MustParse(liveRead), cqapprox.TW(1))
	if err != nil {
		return allOps(len(u.ops))
	}
	chain := cqapprox.MustParse(liveChain)
	var halves [2][]int
	var wg sync.WaitGroup
	for h := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := h*len(u.ops)/2, (h+1)*len(u.ops)/2
			db := newRefDB(liveBase())
			for i, op := range u.ops[:hi] {
				db.add("E", op.ins[:]...)
				db.remove("E", op.del[:]...)
				if i < lo {
					continue
				}
				ok := u.outs[i] == joinPrint(p.Approx(), db)
				if u.checkpoint[i] {
					ok = ok && u.subState[i] == joinPrint(chain, db)
				}
				if !ok {
					halves[h] = append(halves[h], i)
				}
			}
		}()
	}
	wg.Wait()
	return append(halves[0], halves[1]...)
}

func (u *updateBench) layers(p *phase) []metric {
	st := u.srv.Stats()
	// IncrementalEvals counts the advances that did not fall back.
	incr := float64(st.Cache.IncrementalEvals - u.stats0.Cache.IncrementalEvals)
	fb := float64(st.Cache.IncrFallbacks - u.stats0.Cache.IncrFallbacks)
	span := func(ds []time.Duration, perWrite bool) float64 {
		v := meanUS(ds[p.first : p.first+p.n])
		if perWrite {
			v /= 2
		}
		return v
	}
	ms := []metric{
		{"client.write_ack_us", span(u.ack, true), "us"},
		{"server.notify_lag_us", span(u.lag, true), "us"},
		{"eval.read_after_write_us", span(u.read, false), "us"},
		{"eval.incr_fallback_frac", ratio(fb, incr+fb), "fraction"},
		{"runtime.gc_cpu_frac", p.gcCPU, "fraction"},
	}
	twin, err := u.replayTwin(p.first, p.n)
	if err != nil {
		fmt.Println("# twin replay failed:", err)
		return ms
	}
	return append(ms, twin...)
}

// replayTwin replays the traced phase's writes on a twin engine that
// holds the same database. It times Engine.ApplyDB and
// IncrementalEval.Advance of the subscribed query per call, and counts
// the index builds the advance and the read after each delete cause.
func (u *updateBench) replayTwin(first, n int) ([]metric, error) {
	ctx := context.Background()
	db := liveBase()
	for _, op := range u.ops[:first] {
		db.Add("E", op.ins[:]...)
		db.Remove("E", op.del[:]...)
	}
	eng := cqapprox.NewEngine()
	d, _, err := eng.RegisterDB(liveDB, db)
	if err != nil {
		return nil, err
	}
	chain, err := eng.PrepareExact(ctx, cqapprox.MustParse(liveChain))
	if err != nil {
		return nil, err
	}
	read, err := eng.Prepare(ctx, cqapprox.MustParse(liveRead), cqapprox.TW(1))
	if err != nil {
		return nil, err
	}
	if _, err := read.Bind(d).Eval(ctx); err != nil {
		return nil, err
	}
	ie, err := chain.Bind(d).Incremental(ctx)
	if err != nil {
		return nil, err
	}
	var apply, advance time.Duration
	var builds uint64
	for _, op := range u.ops[first : first+n] {
		for k, delta := range []*cqapprox.Delta{cqapprox.NewDelta().Insert("E", op.ins[:]...), cqapprox.NewDelta().Delete("E", op.del[:]...)} {
			t0 := time.Now()
			up, err := eng.ApplyDB(liveDB, delta)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			b0 := up.Next.Stats().IndexBuilds
			if _, err := ie.Advance(ctx, up.Next, up.Delta); err != nil {
				return nil, err
			}
			advance += time.Since(t1)
			apply += t1.Sub(t0)
			if k == 1 { // the workload reads after the delete
				if _, err := read.Bind(up.Next).Eval(ctx); err != nil {
					return nil, err
				}
			}
			builds += up.Next.Stats().IndexBuilds - b0
		}
	}
	writes := float64(2 * n)
	return []metric{
		{"engine.apply_us", float64(apply.Nanoseconds()) / 1e3 / writes, "us"},
		{"eval.advance_us", float64(advance.Nanoseconds()) / 1e3 / writes, "us"},
		{"relstr.index_builds_per_write", float64(builds) / writes, "count"},
	}, nil
}
