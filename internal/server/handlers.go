package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/internal/cluster"
)

// decodeJSON reads the request body into dst, writing a bad_request
// error and returning false on malformed input. Handlers decode (i.e.
// finish the body transfer) before acquiring an admission slot, so
// slow uploads cannot squat on the bounded pools.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		writeError(w, errBadRequest(fmt.Sprintf("decoding request body: %v", err)))
		return false
	}
	return true
}

// target resolves the inline-query half of a request — parse the query,
// resolve the class name. Exact preparations always use the engine's
// default options (that is how the engine keys them), so options on an
// exact request are rejected rather than silently ignored.
func (s *Server) target(query, class string, exact, hasOptions bool) (*cqapprox.Query, cqapprox.Class, *apiError) {
	if query == "" {
		return nil, nil, errBadRequest("query required (or pass a key from /v1/prepare)")
	}
	q, err := cqapprox.Parse(query)
	if err != nil {
		return nil, nil, mapError(err)
	}
	switch {
	case exact && class != "":
		return nil, nil, errBadRequest("class and exact are mutually exclusive")
	case exact && hasOptions:
		return nil, nil, errBadRequest("options apply to class preparations only; exact uses the server defaults")
	case !exact && class == "":
		return nil, nil, errBadRequest("class required (or set exact for the unapproximated query)")
	case exact:
		return q, nil, nil
	}
	c, err := api.ParseClass(class)
	if err != nil {
		return nil, nil, errBadRequest(err.Error())
	}
	return q, c, nil
}

// preparedFor runs (or cache-hits) the engine pipeline for a resolved
// inline query. An uncached preparation — whatever endpoint it arrives
// on — must hold a prepare admission slot: that is the bound protecting
// the NP-hard search, and an inline /v1/eval query would otherwise
// sidestep it. The cache probe only gates admission (hits bypass the
// slot); the preparation itself always goes through Engine.Prepare*,
// which keeps hit accounting and caller-identity rebinding intact.
// The probe is racy against eviction/insertion, but the race is
// benign: at worst one search runs slotless or one hit holds a slot
// briefly.
func (s *Server) preparedFor(ctx context.Context, q *cqapprox.Query, c cqapprox.Class, opt cqapprox.Options) (*cqapprox.PreparedQuery, string, *apiError) {
	key, err := s.eng.CacheKey(q, c, opt)
	if err != nil {
		return nil, "", mapError(err)
	}
	if _, cached := s.eng.Cached(key); !cached {
		if !tryAcquire(s.prepareSem) {
			return nil, "", errOverloaded()
		}
		defer release(s.prepareSem)
		if s.onPrepareStart != nil {
			s.onPrepareStart()
		}
	}
	var p *cqapprox.PreparedQuery
	if c == nil {
		p, err = s.eng.PrepareExact(ctx, q)
	} else {
		p, err = s.eng.PrepareOpt(ctx, q, c, opt)
	}
	if err != nil {
		return nil, "", mapError(err)
	}
	return p, key, nil
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req api.PrepareRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	q, c, apiErr := s.target(req.Query, req.Class, req.Exact, req.Options != nil)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	opt := req.Options.ToOptions(s.eng.Options())
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	p, key, apiErr := s.preparedFor(ctx, q, c, opt)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusOK, api.NewPrepareResponse(p, api.EncodeKey(key)))
}

// handleExplain answers POST /v1/explain: the structured EXPLAIN view
// of a prepared (by key) or inline query — approximation chosen,
// join-forest shape, re-rooting, dead-step eliminations, counting
// classification — plus its stable text rendering. Inline queries run
// (or cache-hit) the prepare pipeline under the same admission bound
// as /v1/prepare; a parse phase is prepended to the prepare timings.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req api.ExplainRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	p, rawKey, parseNS, apiErr := s.resolve(ctx, api.EvalRequest{
		Key: req.Key, Query: req.Query, Class: req.Class, Exact: req.Exact, Options: req.Options,
	})
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	ex := p.Explain()
	if parseNS > 0 {
		ex.Prepare = append([]cqapprox.Phase{{Name: "parse", NS: parseNS}}, ex.Prepare...)
	}
	writeJSON(w, http.StatusOK, api.ExplainResponse{
		Key:     api.EncodeKey(rawKey),
		Explain: ex,
		Text:    ex.Text(),
	})
}

// resolve turns a request's query half into the prepared query to
// evaluate — by cache key when given, via preparedFor for an inline
// query — together with its raw cache key and, for an inline query,
// the parse time (which /v1/explain reports as a phase).
func (s *Server) resolve(ctx context.Context, req api.EvalRequest) (p *cqapprox.PreparedQuery, key string, parseNS int64, apiErr *apiError) {
	if req.Key != "" {
		raw, err := api.DecodeKey(req.Key)
		if err != nil {
			return nil, "", 0, errBadRequest(err.Error())
		}
		p, ok := s.eng.Cached(raw)
		if !ok {
			return nil, "", 0, errUnknownKey()
		}
		return p, raw, 0, nil
	}
	t0 := time.Now()
	q, c, apiErr := s.target(req.Query, req.Class, req.Exact, req.Options != nil)
	if apiErr != nil {
		return nil, "", 0, apiErr
	}
	parseNS = time.Since(t0).Nanoseconds()
	p, key, apiErr = s.preparedFor(ctx, q, c, req.Options.ToOptions(s.eng.Options()))
	return p, key, parseNS, apiErr
}

// handleRegisterDB registers (or replaces) a named database snapshot —
// the one-time indexing cost that later eval-by-name requests amortize
// — or, when the request carries a delta instead of a database,
// applies the change set copy-on-write to the existing registration.
// The structure build is data-sized work, so the request holds an eval
// admission slot like the other data-touching endpoints (taken after
// the decode, as everywhere else); a delta, whose fork costs the delta,
// takes one too. Every
// successful change is published to the name's /v1/subscribe watchers:
// deltas carry the atomic (prev, next, delta) link so subscriptions
// advance incrementally, replacements force a resynchronising
// re-evaluation.
func (s *Server) handleRegisterDB(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterDBRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, errBadRequest("name required"))
		return
	}
	if strings.ContainsRune(req.Name, 0) {
		// NUL is the shard-slice namespace separator (see shardDBName);
		// keeping it out of client names keeps the namespaces disjoint.
		writeError(w, errBadRequest("name must not contain NUL bytes"))
		return
	}
	if !s.acquire(s.evalSem, w) {
		return
	}
	defer release(s.evalSem)
	resp, ev, db, apiErr := s.storeDB(req.Name, req.Name, req.Database, req.Delta)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	s.notify(req.Name, ev)
	if s.cluster != nil {
		ctx, cancel := s.requestContext(r, 0)
		defer cancel()
		if db != nil {
			// Shard the registration across the peers. A failed push is
			// not an error to the client — the full local copy just
			// registered serves the name correctly either way; the node
			// merely keeps answering without fan-out (peer_errors records
			// the incident).
			if err := s.cluster.registerSharded(ctx, s.eng, req.Name, db); err != nil && s.cfg.Logger != nil {
				s.cfg.Logger.Warn("cluster shard push failed; serving from the local full copy",
					"db", req.Name, "error", err)
			}
		} else if pl := s.cluster.placementOf(req.Name); pl != nil {
			// Forward the routed slices to the owning shards. A peer
			// failure surfaces as 502 even though the local copy already
			// advanced: deltas are idempotent, so the client simply
			// retries the same request.
			all, err := s.cluster.forwardDelta(ctx, s.eng, req.Name, pl, ev.delta)
			if err != nil {
				writeError(w, mapError(err))
				return
			}
			resp.Applied = all
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// storeDB is the storage step shared by /v1/db and /v1/peer/db, run
// under the caller's eval slot: a delta advances the registration
// stored under internal copy-on-write, a database replaces it. It
// returns the response (reporting the registration as name), the change
// as a subscriber event, and a replacement's decoded structure (nil for
// a delta).
func (s *Server) storeDB(name, internal string, database api.Database, dc *api.DeltaChange) (resp api.RegisterDBResponse, ev subEvent, db *cqapprox.Structure, apiErr *apiError) {
	replaced := true
	if dc != nil {
		if len(database) > 0 {
			return resp, ev, nil, errBadRequest("database and delta are mutually exclusive (register a snapshot or update the existing one, not both)")
		}
		delta, err := dc.ToDelta()
		if err != nil {
			return resp, ev, nil, errBadRequest(err.Error())
		}
		if _, ok := s.eng.DB(internal); !ok {
			return resp, ev, nil, errUnknownDB(name)
		}
		u, err := s.eng.ApplyDB(internal, delta)
		if err != nil {
			return resp, ev, nil, errBadRequest(err.Error())
		}
		ev = subEvent{prev: u.Prev, next: u.Next, delta: u.Delta}
	} else {
		var err error
		if db, err = database.ToStructure(); err == nil {
			ev.next, replaced, err = s.eng.RegisterDB(internal, db)
		}
		if err != nil {
			return resp, ev, nil, errBadRequest(err.Error())
		}
	}
	return api.RegisterDBResponse{
		Name:      name,
		Version:   ev.next.Version(),
		Relations: len(ev.next.Relations()),
		Facts:     ev.next.NumFacts(),
		Replaced:  replaced,
		Applied:   dc != nil,
	}, ev, db, nil
}

// dbSource is an eval request's resolved database half: a registered
// snapshot, or an inline structure borrowed for the request (the
// server owns the decoded structure, so nothing mutates it while the
// request runs). Every verb binds it the same way. On a
// cluster-configured server whose named database carries a recorded
// shard placement, pl is set and the verbs route through the
// scatter-gather trichotomy first (see cluster.go); everything else —
// inline databases, unsharded names, single-node servers — runs
// locally. par is the request's worker-budget option, appended to
// every call's own options.
type dbSource struct {
	db  *cqapprox.Database
	pl  *cluster.Placement
	par []cqapprox.EvalOption // see Server.budgetOpts
}

// resolveDB turns the request's database half into a dbSource: a
// registered snapshot when DB names one, the inline structure
// otherwise. Naming and shipping at once is rejected rather than
// silently preferring one.
func (s *Server) resolveDB(req api.EvalRequest) (dbSource, *apiError) {
	if req.DB != "" {
		if len(req.Database) > 0 {
			return dbSource{}, errBadRequest("db and database are mutually exclusive (name a registered database or ship one inline, not both)")
		}
		if strings.ContainsRune(req.DB, 0) {
			// Shard slices live under NUL-prefixed internal names;
			// client requests cannot address them.
			return dbSource{}, errBadRequest("db must not contain NUL bytes")
		}
		d, ok := s.eng.DB(req.DB)
		if !ok {
			return dbSource{}, errUnknownDB(req.DB)
		}
		src := dbSource{db: d}
		if s.cluster != nil {
			src.pl = s.cluster.placementOf(req.DB)
		}
		return src, nil
	}
	db, err := req.Database.ToStructure()
	if err != nil {
		return dbSource{}, errBadRequest(err.Error())
	}
	return dbSource{db: cqapprox.Borrow(db)}, nil
}

// checkRankKnobs validates the ranked-evaluation knobs of a request.
// Endpoints that cannot honor them (eval-bool, count) pass
// allowed=false and reject rather than silently ignoring; the
// order-variable names themselves are validated against the head later,
// by the library (mapped to bad_request via ErrBadOrder).
func checkRankKnobs(req api.EvalRequest, allowed bool) *apiError {
	if !allowed {
		if len(req.Order) > 0 || req.Descending || req.Limit != 0 {
			return errBadRequest("order, descending and limit apply to eval and stream requests only")
		}
		return nil
	}
	if req.Limit < 0 {
		return errBadRequest("limit must be nonnegative (0 means unlimited)")
	}
	return nil
}

// budgetOpts resolves a request's evaluation worker budget into the
// option that carries it to the call. An absent budget (≤0) inherits
// the engine's configured default; either way the configured cap
// clamps it rather than rejecting — the budget is advisory, answers
// are identical at any setting. The result is nil when the clamped
// budget is p's default anyway, so the common path allocates nothing.
func (s *Server) budgetOpts(p *cqapprox.PreparedQuery, n int) []cqapprox.EvalOption {
	if n <= 0 {
		n = p.Parallelism()
	}
	n = max(1, min(n, s.cfg.MaxParallelism))
	if n == p.Parallelism() {
		return nil
	}
	return []cqapprox.EvalOption{cqapprox.WithEvalParallelism(n)}
}

// evalWith factors the shared shape of the evaluation endpoints after
// their own decode and knob validation: resolve the database half,
// take an eval admission slot, resolve the prepared query under the
// request deadline, attach the clamped per-request worker budget to the
// database half, park the plan mode for the request log, and hand off
// to the endpoint's terminal action. run owns the response on success.
func (s *Server) evalWith(w http.ResponseWriter, r *http.Request, req api.EvalRequest, run func(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource)) {
	db, apiErr := s.resolveDB(req)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if !s.acquire(s.evalSem, w) {
		return
	}
	defer release(s.evalSem)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	p, _, _, apiErr := s.resolve(ctx, req)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	setPlan(w, p.PlanMode())
	db.par = s.budgetOpts(p, req.Parallelism)
	run(ctx, p, db)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req api.EvalRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if apiErr := checkRankKnobs(req, true); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	s.serveCall(w, r, call{verbEval, api.CountRequest{EvalRequest: req}}, func(res legResult) any {
		return evalBody(res)
	})
}

func (s *Server) handleEvalBool(w http.ResponseWriter, r *http.Request) {
	var req api.EvalRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if apiErr := checkRankKnobs(req, false); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	s.serveCall(w, r, call{verbBool, api.CountRequest{EvalRequest: req}}, func(res legResult) any {
		return api.EvalBoolResponse{Result: res.ok, Trace: res.trace}
	})
}

// handleCount answers POST /v1/count: the exact answer count, or —
// with estimate:true — the sampling estimator's (1±ε, 1-δ) count for
// plans where exact counting would materialise answers. Admission,
// query/database addressing, parallelism clamping and the error
// taxonomy are exactly /v1/eval's; the extra knobs are validated up
// front so a bad ε fails before any work runs.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req api.CountRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if apiErr := checkRankKnobs(req.EvalRequest, false); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if !req.Estimate && (req.Epsilon != 0 || req.Delta != 0 || req.Seed != nil || req.MaxSamples != 0) {
		writeError(w, errBadRequest("epsilon, delta, seed and max_samples apply to estimate requests only"))
		return
	}
	if req.Epsilon < 0 || req.Epsilon > 1 {
		writeError(w, errBadRequest("epsilon must be in (0, 1] (0 means the server default)"))
		return
	}
	if req.Delta < 0 || req.Delta >= 1 {
		writeError(w, errBadRequest("delta must be in (0, 1) (0 means the server default)"))
		return
	}
	if req.MaxSamples < 0 {
		writeError(w, errBadRequest("max_samples must be positive (0 means the server default)"))
		return
	}
	s.serveCall(w, r, call{verbCount, req}, func(res legResult) any {
		return api.CountResponse{
			Count:     res.count.Count,
			Estimate:  res.count.Estimate,
			Estimated: res.count.Estimated,
			Mode:      res.count.Mode,
			Samples:   res.count.Samples,
			Batches:   res.count.Batches,
			Epsilon:   res.count.Epsilon,
			Delta:     res.count.Delta,
			Trace:     res.trace,
		}
	})
}

// handleStream writes answers as NDJSON — one JSON array per line,
// flushed as produced, so the first answer reaches the client before
// the rest are even enumerated (the plan streams via iter.Seq; nothing
// is materialized). A terminal JSON *object* line carries the error if
// the enumeration was truncated (deadline or disconnect); clients
// distinguish the two shapes by the first byte. Closing the connection
// cancels the enumeration promptly through the request context.
// Order/Descending switch the stream to ranked enumeration; Limit ends
// the stream (and the response) after Limit answer lines.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	var req api.EvalRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if apiErr := checkRankKnobs(req, true); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if req.Trace {
		// A stream response has nowhere to carry the trace block, so the
		// knob is rejected up front — same shape as the rank-knob
		// validation — rather than silently ignored.
		writeError(w, errBadRequest("trace applies to eval, eval/bool and count requests only (a stream response carries no trace block)"))
		return
	}
	s.evalWith(w, r, req, func(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		flush := func() {
			if flusher != nil {
				flusher.Flush()
			}
		}
		if db.pl != nil {
			// Streams enumerate lazily; a scatter would have to
			// materialise every shard's answers before the first line.
			s.cluster.route(p, db.pl, false)
		}
		c := call{req: api.CountRequest{EvalRequest: req}}
		seq, errf := p.Bind(db.db).AnswersErr(ctx, c.opts(db.par)...)
		n := 0
		var line []byte
		for t := range seq {
			line = append(api.AppendRow(line[:0], t), '\n') // exactly one answer per line
			if _, err := w.Write(line); err != nil {
				return // client gone; ctx cancellation is already unwinding seq
			}
			flush()
			n++
			if s.onStreamAnswer != nil {
				s.onStreamAnswer(ctx, n)
			}
		}
		if err := errf(); err != nil {
			// The status is committed at 200, so instrument cannot see
			// this failure — count it here or the stream endpoint would
			// never report errors.
			s.metrics.byName[epStream].errors.Add(1)
			info := mapError(err).info
			_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: &info})
			flush()
		}
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
