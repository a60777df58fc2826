package server

// The live-query subscription subsystem behind POST /v1/subscribe.
//
// A subscription is a long-lived NDJSON response whose handler
// goroutine doubles as the subscriber loop: it materialises the query
// once through cqapprox's incremental evaluator, registers itself
// under the database's name, and then alternates between waiting for
// update events and writing diff frames. Updates arrive from the
// /v1/db handler, which publishes every successful registration,
// replacement and delta application to the name's subscribers through
// per-subscriber bounded queues — the publisher never blocks on a slow
// reader. Queue overflow invokes Config.SlowConsumerPolicy: drop the
// backlog and push one resync frame carrying the full answer set
// (default), or disconnect with the stable error code slow_consumer.
//
// Frame semantics are exact at every step: each frame's added/removed
// patch the client's previous state to the answer set at the frame's
// version, whether the server propagated the batch through the reduced
// join forest (work proportional to the delta) or fell back to a full
// re-evaluation (wholesale replacement, oversized delta, bag plan —
// the frame says which). Bursts coalesce: all updates queued when the
// subscriber wakes (plus whatever lands within Config.CoalesceWindow)
// net out into a single frame.

import (
	"context"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox"
	"cqapprox/api"
)

// subEvent is one registered-database change as published to
// subscribers: the resulting snapshot, plus — for delta updates — the
// snapshot the delta was applied to and the delta itself. A nil delta
// (wholesale replacement via POST /v1/db with a database) forces the
// subscriber through a resynchronising re-evaluation; the diff it
// emits is still exact.
type subEvent struct {
	prev  *cqapprox.Database
	next  *cqapprox.Database
	delta *cqapprox.Delta
}

// subscriber is one live /v1/subscribe connection's queue state. The
// handler goroutine owns the receiving side; the /v1/db handler
// publishes into ch without ever blocking (see subRegistry.notify).
type subscriber struct {
	ch       chan subEvent
	overflow atomic.Bool   // resync policy: events were dropped
	kicked   chan struct{} // disconnect policy: closed exactly once
	kickOnce sync.Once
}

func (sub *subscriber) kick() { sub.kickOnce.Do(func() { close(sub.kicked) }) }

// subRegistry fans database updates out to the name's subscribers.
type subRegistry struct {
	mu   sync.Mutex
	byDB map[string]map[*subscriber]struct{}
}

func (r *subRegistry) add(db string, sub *subscriber) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byDB == nil {
		r.byDB = map[string]map[*subscriber]struct{}{}
	}
	if r.byDB[db] == nil {
		r.byDB[db] = map[*subscriber]struct{}{}
	}
	r.byDB[db][sub] = struct{}{}
}

func (r *subRegistry) remove(db string, sub *subscriber) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.byDB[db], sub)
	if len(r.byDB[db]) == 0 {
		delete(r.byDB, db)
	}
}

// notify publishes ev to every subscriber of db without blocking: a
// full queue marks the subscriber overflowed (resync policy) or kicks
// it (disconnect policy). Called from the /v1/db handler on every
// successful registration, replacement or delta application.
func (s *Server) notify(db string, ev subEvent) {
	s.subs.mu.Lock()
	targets := make([]*subscriber, 0, len(s.subs.byDB[db]))
	for sub := range s.subs.byDB[db] {
		targets = append(targets, sub)
	}
	s.subs.mu.Unlock()
	for _, sub := range targets {
		select {
		case sub.ch <- ev:
		default:
			if s.cfg.SlowConsumerPolicy == SlowConsumerDisconnect {
				sub.kick()
			} else {
				sub.overflow.Store(true)
			}
		}
	}
}

// Drain ends every live subscription (their handlers return, so an
// http.Server.Shutdown that would otherwise wait on the long-lived
// connections can complete). New subscriptions after Drain end
// immediately after their init frame. Safe to call more than once.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// subStats holds the /v1/stats subscription counters.
type subStats struct {
	active        atomic.Int64
	total         atomic.Uint64
	notifications atomic.Uint64
	resyncs       atomic.Uint64
	slowDrops     atomic.Uint64
}

func (st *subStats) snapshot() api.SubscriptionStats {
	return api.SubscriptionStats{
		Active:            st.active.Load(),
		Subscriptions:     st.total.Load(),
		Notifications:     st.notifications.Load(),
		Resyncs:           st.resyncs.Load(),
		SlowConsumerDrops: st.slowDrops.Load(),
	}
}

// handleSubscribe answers POST /v1/subscribe: resolve the prepared
// query and the registered database, evaluate once, then stream NDJSON
// diff frames until the client disconnects, the server drains, or the
// slow-consumer policy disconnects. The handler goroutine is the
// subscriber loop — its return is the teardown, which instrument
// observes like any other request.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req api.SubscribeRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.DB == "" {
		writeError(w, errBadRequest("db required (subscriptions follow databases registered via POST /v1/db; inline databases never update)"))
		return
	}
	if strings.ContainsRune(req.DB, 0) {
		// Internal shard slices (NUL-prefixed names) are not
		// subscribable — they change without notification.
		writeError(w, errBadRequest("db must not contain NUL bytes"))
		return
	}
	// Register before reading the snapshot: an update landing between
	// the initial evaluation and registration would otherwise be lost.
	// Events older than the evaluated version net to empty diffs.
	sub := &subscriber{ch: make(chan subEvent, s.cfg.SubscriberQueue), kicked: make(chan struct{})}
	s.subs.add(req.DB, sub)
	defer s.subs.remove(req.DB, sub)

	db, ok := s.eng.DB(req.DB)
	if !ok {
		writeError(w, errUnknownDB(req.DB))
		return
	}
	// Setup — the prepare and the initial evaluation — is data-sized
	// work: it runs under the request timeout and holds an eval
	// admission slot like /v1/eval, in evalWith's order (so an unknown
	// db costs no search). The slot is released before the stream
	// starts — a parked watcher must not starve evaluations.
	if !s.acquire(s.evalSem, w) {
		return
	}
	setupCtx, cancel := s.requestContext(r, req.TimeoutMS)
	p, _, _, apiErr := s.resolve(setupCtx, api.EvalRequest{
		Key: req.Key, Query: req.Query, Class: req.Class, Exact: req.Exact, Options: req.Options,
	})
	var ie *cqapprox.IncrementalEval
	if apiErr == nil {
		var err error
		if ie, err = p.Bind(db).Incremental(setupCtx, s.budgetOpts(p, req.Parallelism)...); err != nil {
			apiErr = mapError(err)
		}
	}
	release(s.evalSem)
	cancel()
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}

	s.subStats.total.Add(1)
	s.subStats.active.Add(1)
	defer s.subStats.active.Add(-1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	frames := 0
	push := func(f frame) bool {
		bp := bodyPool.Get().(*[]byte)
		line, _ := appendLine(bp, f) // one frame per line; frames always encode
		_, err := w.Write(line)
		putBody(bp)
		if err != nil {
			return false // client gone
		}
		// Count before Flush: a client that reads stats right after
		// receiving the frame must already see it.
		s.subStats.notifications.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
		frames++
		if s.onSubscribeFrame != nil {
			s.onSubscribeFrame(frames)
		}
		return true
	}
	if !push(frame{DiffFrame: api.DiffFrame{Version: ie.Version(), Init: true}, added: ie.Answers()}) {
		return
	}

	ctx := r.Context()
	for {
		var ev subEvent
		select {
		case <-ctx.Done():
			return
		case <-s.drainCh:
			return
		case <-sub.kicked:
			s.subStats.slowDrops.Add(1)
			s.metrics.byName[epSubscribe].errors.Add(1)
			push(frame{DiffFrame: api.DiffFrame{Version: ie.Version(), Error: &api.ErrorInfo{
				Code:    api.CodeSlowConsumer,
				Message: "subscriber fell behind the update stream and the server is configured to disconnect slow consumers; re-subscribe for a fresh init frame",
			}}})
			return
		case ev = <-sub.ch:
		}
		batch := []subEvent{ev}
		batch = s.coalesce(ctx, sub, batch)
		frame, ok := s.advanceBatch(ctx, ie, sub, req.DB, batch)
		if !ok {
			return // an advance failed (context cancelled mid-update)
		}
		if !push(frame) {
			return
		}
	}
}

// coalesce folds every update already queued — plus, with a positive
// CoalesceWindow, whatever lands within it — into one batch.
func (s *Server) coalesce(ctx context.Context, sub *subscriber, batch []subEvent) []subEvent {
	for {
		select {
		case ev := <-sub.ch:
			batch = append(batch, ev)
			continue
		default:
		}
		break
	}
	if s.cfg.CoalesceWindow <= 0 {
		return batch
	}
	timer := time.NewTimer(s.cfg.CoalesceWindow)
	defer timer.Stop()
	for {
		select {
		case ev := <-sub.ch:
			batch = append(batch, ev)
		case <-timer.C:
			return batch
		case <-ctx.Done():
			return batch
		case <-s.drainCh:
			return batch
		}
	}
}

// frame is a diff frame on its way out: its rows are the engine's
// tuples, which api.AppendDiffFrame writes without converting them.
type frame struct {
	api.DiffFrame
	added, removed []cqapprox.Tuple
}

func (f frame) appendJSON(dst []byte) ([]byte, error) {
	return api.AppendDiffFrame(dst, &f.DiffFrame, f.added, f.removed), nil
}

// advanceBatch drives the maintained state through one coalesced batch
// of updates and folds the per-update diffs into a single net frame.
// An overflow (resync policy) discards the patch semantics: the state
// resynchronises against the database's current registration and the
// frame carries the complete answer set instead.
func (s *Server) advanceBatch(ctx context.Context, ie *cqapprox.IncrementalEval, sub *subscriber, dbName string, batch []subEvent) (frame, bool) {
	var out frame
	net := map[string]netEntry{}
	for _, ev := range batch {
		delta := ev.delta
		// The delta links ev.prev → ev.next; if the maintained state is
		// not at ev.prev (a replacement slipped in, or overflow dropped
		// the link), only a re-evaluation gives an exact diff.
		if delta == nil || ev.prev == nil || ev.prev.Version() != ie.Version() {
			delta = nil
		}
		diff, err := ie.Advance(ctx, ev.next, delta)
		if err != nil {
			return out, false
		}
		if diff.Fallback {
			out.Fallback, out.Reason = true, diff.Reason
		}
		accumulate(net, diff)
	}
	if sub.overflow.Swap(false) {
		// Updates were dropped between the queue filling up and now:
		// the net diff is not trustworthy. Resynchronise against the
		// current registration and replace the client's state outright.
		s.subStats.resyncs.Add(1)
		if cur, ok := s.eng.DB(dbName); ok && cur.Version() != ie.Version() {
			if _, err := ie.Advance(ctx, cur, nil); err != nil {
				return out, false
			}
		}
		return frame{DiffFrame: api.DiffFrame{Version: ie.Version(), Resync: true}, added: ie.Answers()}, true
	}
	out.Version = ie.Version()
	out.added, out.removed = netDiff(net)
	return out, true
}

// netEntry tracks one tuple's net membership change across a batch.
type netEntry struct {
	tuple cqapprox.Tuple
	sign  int // +1 net added, -1 net removed, 0 cancelled out
}

// accumulate folds one exact diff into the net map. Within a batch the
// diffs compose: a tuple added then removed nets to zero, etc.
func accumulate(net map[string]netEntry, d *cqapprox.AnswerDiff) {
	for _, t := range d.Added {
		k := string(t.Key())
		e := net[k]
		e.tuple, e.sign = t, e.sign+1
		net[k] = e
	}
	for _, t := range d.Removed {
		k := string(t.Key())
		e := net[k]
		e.tuple, e.sign = t, e.sign-1
		net[k] = e
	}
}

// netDiff extracts the surviving net changes, each side sorted in the
// canonical answer order.
func netDiff(net map[string]netEntry) (added, removed []cqapprox.Tuple) {
	for _, e := range net {
		switch {
		case e.sign > 0:
			added = append(added, e.tuple)
		case e.sign < 0:
			removed = append(removed, e.tuple)
		}
	}
	slices.SortFunc(added, slices.Compare)
	slices.SortFunc(removed, slices.Compare)
	return added, removed
}
