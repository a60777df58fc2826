package server

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
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
	var (
		p       *cqapprox.PreparedQuery
		rawKey  string
		parseNS int64
	)
	if req.Key != "" {
		raw, err := api.DecodeKey(req.Key)
		if err != nil {
			writeError(w, errBadRequest(err.Error()))
			return
		}
		cached, ok := s.eng.Cached(raw)
		if !ok {
			writeError(w, errUnknownKey())
			return
		}
		p, rawKey = cached, raw
	} else {
		t0 := time.Now()
		q, c, apiErr := s.target(req.Query, req.Class, req.Exact, req.Options != nil)
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
		parseNS = time.Since(t0).Nanoseconds()
		ctx, cancel := s.requestContext(r, req.TimeoutMS)
		defer cancel()
		p, rawKey, apiErr = s.preparedFor(ctx, q, c, req.Options.ToOptions(s.eng.Options()))
		if apiErr != nil {
			writeError(w, apiErr)
			return
		}
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

// resolve turns an EvalRequest into the prepared query to evaluate:
// by cache key when given, via preparedFor for an inline query.
func (s *Server) resolve(ctx context.Context, req api.EvalRequest) (*cqapprox.PreparedQuery, *apiError) {
	if req.Key != "" {
		raw, err := api.DecodeKey(req.Key)
		if err != nil {
			return nil, errBadRequest(err.Error())
		}
		p, ok := s.eng.Cached(raw)
		if !ok {
			return nil, errUnknownKey()
		}
		return p, nil
	}
	q, c, apiErr := s.target(req.Query, req.Class, req.Exact, req.Options != nil)
	if apiErr != nil {
		return nil, apiErr
	}
	p, _, apiErr := s.preparedFor(ctx, q, c, req.Options.ToOptions(s.eng.Options()))
	return p, apiErr
}

// handleRegisterDB registers (or replaces) a named database snapshot —
// the one-time indexing cost that later eval-by-name requests amortize
// — or, when the request carries a delta instead of a database,
// applies the change set copy-on-write to the existing registration.
// The structure build / snapshot fork is data-sized work, so the
// request holds an eval admission slot like the other data-touching
// endpoints (taken after the decode, as everywhere else). Every
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
	if req.Delta != nil {
		if len(req.Database) > 0 {
			writeError(w, errBadRequest("database and delta are mutually exclusive (register a snapshot or update the existing one, not both)"))
			return
		}
		delta, err := req.Delta.ToDelta()
		if err != nil {
			writeError(w, errBadRequest(err.Error()))
			return
		}
		if _, ok := s.eng.DB(req.Name); !ok {
			writeError(w, errUnknownDB(req.Name))
			return
		}
		u, err := s.eng.ApplyDB(req.Name, delta)
		if err != nil {
			writeError(w, errBadRequest(err.Error()))
			return
		}
		s.notify(req.Name, subEvent{prev: u.Prev, next: u.Next, delta: u.Delta})
		applied := true
		if s.cluster != nil {
			if pl := s.cluster.placementOf(req.Name); pl != nil {
				// Forward the routed slices to the owning shards. A peer
				// failure surfaces as 502 even though the local copy
				// already advanced: deltas are idempotent, so the client
				// simply retries the same request.
				ctx, cancel := s.requestContext(r, 0)
				all, err := s.cluster.forwardDelta(ctx, s.eng, req.Name, pl, u.Delta)
				cancel()
				if err != nil {
					writeError(w, mapError(err))
					return
				}
				applied = all
			}
		}
		writeJSON(w, http.StatusOK, api.RegisterDBResponse{
			Name:      u.Next.Name(),
			Version:   u.Next.Version(),
			Relations: len(u.Next.Relations()),
			Facts:     u.Next.NumFacts(),
			Replaced:  true,
			Applied:   applied,
		})
		return
	}
	db, err := req.Database.ToStructure()
	if err != nil {
		writeError(w, errBadRequest(err.Error()))
		return
	}
	d, replaced, err := s.eng.RegisterDB(req.Name, db)
	if err != nil {
		writeError(w, errBadRequest(err.Error()))
		return
	}
	s.notify(req.Name, subEvent{next: d})
	if s.cluster != nil {
		// Shard the registration across the peers. A failed push is not
		// an error to the client — the full local copy just registered
		// serves the name correctly either way; the node merely keeps
		// answering without fan-out (peer_errors records the incident).
		ctx, cancel := s.requestContext(r, 0)
		if err := s.cluster.registerSharded(ctx, s.eng, req.Name, db); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Warn("cluster shard push failed; serving from the local full copy",
				"db", req.Name, "error", err)
		}
		cancel()
	}
	writeJSON(w, http.StatusOK, api.RegisterDBResponse{
		Name:      d.Name(),
		Version:   d.Version(),
		Relations: len(d.Relations()),
		Facts:     d.NumFacts(),
		Replaced:  replaced,
	})
}

// dbSource is an eval request's resolved database: exactly one of an
// inline per-request structure or a registered snapshot. The three
// evaluation endpoints go through its methods so inline and registered
// traffic share one code path per endpoint. On a cluster-configured
// server whose named database carries a recorded shard placement, the
// cluster fields are set and the materialising methods route through
// the scatter-gather trichotomy first (see internal/server/cluster.go);
// everything else — inline databases, unsharded names, single-node
// servers — takes the local path untouched. Every method adds the
// request's worker-budget option par to the call's own options.
type dbSource struct {
	inline *cqapprox.Structure
	bind   func(*cqapprox.PreparedQuery) *cqapprox.BoundQuery
	par    []cqapprox.EvalOption // see Server.budgetOpts

	// The cluster routing context; pl non-nil only when srv.cluster is
	// too and the named database is sharded.
	srv *Server
	pl  *cluster.Placement
	req api.EvalRequest
}

// opts returns the endpoint's own options plus the budget option,
// copying only when there is one to add.
func (d dbSource) opts(own []cqapprox.EvalOption) []cqapprox.EvalOption {
	if d.par == nil {
		return own
	}
	return append(own[:len(own):len(own)], d.par...)
}

func (d dbSource) eval(ctx context.Context, p *cqapprox.PreparedQuery, opts []cqapprox.EvalOption) (cqapprox.Answers, error) {
	opts = d.opts(opts)
	if d.pl != nil {
		if _, scatter := d.srv.cluster.route(p, d.pl); scatter {
			return d.srv.cluster.scatterEval(ctx, d.srv.eng, p, d.req, opts)
		}
	}
	if d.inline != nil {
		return p.Eval(ctx, d.inline, opts...)
	}
	return d.bind(p).Eval(ctx, opts...)
}

func (d dbSource) evalBool(ctx context.Context, p *cqapprox.PreparedQuery) (bool, error) {
	if d.pl != nil {
		if _, scatter := d.srv.cluster.route(p, d.pl); scatter {
			return d.srv.cluster.scatterBool(ctx, d.srv.eng, p, d.req, d.par)
		}
	}
	if d.inline != nil {
		return p.EvalBool(ctx, d.inline, d.par...)
	}
	return d.bind(p).EvalBool(ctx, d.par...)
}

func (d dbSource) evalTrace(ctx context.Context, p *cqapprox.PreparedQuery) (cqapprox.Answers, *cqapprox.ExecTrace, error) {
	if d.pl != nil {
		// A trace describes one local execution; traced requests never
		// scatter (the full copy answers, the counters record why).
		d.srv.cluster.noteLocal(p, d.pl)
	}
	if d.inline != nil {
		return p.EvalTrace(ctx, d.inline, d.par...)
	}
	return d.bind(p).EvalTrace(ctx, d.par...)
}

func (d dbSource) evalBoolTrace(ctx context.Context, p *cqapprox.PreparedQuery) (bool, *cqapprox.ExecTrace, error) {
	if d.pl != nil {
		d.srv.cluster.noteLocal(p, d.pl)
	}
	if d.inline != nil {
		return p.EvalBoolTrace(ctx, d.inline, d.par...)
	}
	return d.bind(p).EvalBoolTrace(ctx, d.par...)
}

func (d dbSource) answersErr(ctx context.Context, p *cqapprox.PreparedQuery, opts []cqapprox.EvalOption) (iter.Seq[cqapprox.Tuple], func() error) {
	if d.pl != nil {
		// Streams enumerate lazily; a scatter would have to materialise
		// every shard's answers before the first line. Local it is.
		d.srv.cluster.noteLocal(p, d.pl)
	}
	opts = d.opts(opts)
	if d.inline != nil {
		return p.AnswersErr(ctx, d.inline, opts...)
	}
	return d.bind(p).AnswersErr(ctx, opts...)
}

// count runs a count or estimate. Against a sharded database the
// routing trichotomy decides first: one partitioned occurrence whose
// per-shard answer sets are disjoint sums by scatter-gather; traced
// requests, ≥2 occurrences and overlapping shards (the partitioned atom
// binds non-head variables, so a sum would overcount) count on the
// local full copy, as does the occurrence-free case.
func (d dbSource) count(ctx context.Context, p *cqapprox.PreparedQuery, req api.CountRequest, opts []cqapprox.CountOption) (*cqapprox.CountResult, error) {
	opts = d.opts(opts)
	if d.pl != nil {
		ctl := d.srv.cluster
		switch occ := p.PartitionedOccurrences(d.pl.Partitioned); {
		case occ == 0:
			ctl.routedLocal.Add(1)
		case occ == 1 && !req.Trace && p.CountSummable(d.pl.Partitioned):
			return ctl.scatterCount(ctx, d.srv.eng, p, req, opts)
		default:
			ctl.scatterFallbacks.Add(1)
		}
	}
	switch {
	case d.inline != nil && req.Estimate:
		return p.EstimateCount(ctx, d.inline, opts...)
	case d.inline != nil:
		return p.Count(ctx, d.inline, opts...)
	case req.Estimate:
		return d.bind(p).EstimateCount(ctx, opts...)
	}
	return d.bind(p).Count(ctx, opts...)
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
		src := dbSource{bind: func(p *cqapprox.PreparedQuery) *cqapprox.BoundQuery { return p.Bind(d) }}
		if s.cluster != nil {
			if pl := s.cluster.placementOf(req.DB); pl != nil {
				src.srv, src.pl, src.req = s, pl, req
			}
		}
		return src, nil
	}
	db, err := req.Database.ToStructure()
	if err != nil {
		return dbSource{}, errBadRequest(err.Error())
	}
	return dbSource{inline: db}, nil
}

// rankOpts translates the request's ranked-evaluation knobs into the
// library options /v1/eval and /v1/stream pass through; checkRankKnobs
// has already validated them.
func rankOpts(req api.EvalRequest) []cqapprox.EvalOption {
	var opts []cqapprox.EvalOption
	if len(req.Order) > 0 {
		opts = append(opts, cqapprox.WithOrder(req.Order...))
	}
	if req.Descending {
		opts = append(opts, cqapprox.WithDescending())
	}
	if req.Limit > 0 {
		opts = append(opts, cqapprox.WithLimit(req.Limit))
	}
	return opts
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
	p, apiErr := s.resolve(ctx, req)
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
	ranked := len(req.Order) > 0 || req.Descending || req.Limit > 0
	if req.Trace && ranked {
		writeError(w, errBadRequest("trace cannot be combined with order, descending or limit"))
		return
	}
	s.evalWith(w, r, req, func(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource) {
		if req.Trace {
			ans, tr, err := db.evalTrace(ctx, p)
			if err != nil {
				writeError(w, mapError(err))
				return
			}
			setTrace(w, tr)
			writeJSON(w, http.StatusOK, api.EvalResponse{Answers: api.FromAnswers(ans), Count: len(ans), Trace: tr})
			return
		}
		ans, err := db.eval(ctx, p, rankOpts(req))
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		writeJSON(w, http.StatusOK, api.EvalResponse{Answers: api.FromAnswers(ans), Count: len(ans)})
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
	s.evalWith(w, r, req, func(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource) {
		if req.Trace {
			res, tr, err := db.evalBoolTrace(ctx, p)
			if err != nil {
				writeError(w, mapError(err))
				return
			}
			setTrace(w, tr)
			writeJSON(w, http.StatusOK, api.EvalBoolResponse{Result: res, Trace: tr})
			return
		}
		res, err := db.evalBool(ctx, p)
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		writeJSON(w, http.StatusOK, api.EvalBoolResponse{Result: res})
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
	opts := countOpts(req)
	s.evalWith(w, r, req.EvalRequest, func(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource) {
		res, err := db.count(ctx, p, req, opts)
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		setTrace(w, res.Trace)
		writeJSON(w, http.StatusOK, api.CountResponse{
			Count:     res.Count,
			Estimate:  res.Estimate,
			Estimated: res.Estimated,
			Mode:      res.Mode,
			Samples:   res.Samples,
			Batches:   res.Batches,
			Epsilon:   res.Epsilon,
			Delta:     res.Delta,
			Trace:     res.Trace,
		})
	})
}

// countOpts translates a count request's estimator and trace knobs
// into library options (shared by /v1/count and the peer count leg).
func countOpts(req api.CountRequest) []cqapprox.CountOption {
	var opts []cqapprox.CountOption
	if req.Epsilon > 0 {
		opts = append(opts, cqapprox.WithEpsilon(req.Epsilon))
	}
	if req.Delta > 0 {
		opts = append(opts, cqapprox.WithDelta(req.Delta))
	}
	if req.Seed != nil {
		opts = append(opts, cqapprox.WithSeed(*req.Seed))
	}
	if req.MaxSamples > 0 {
		opts = append(opts, cqapprox.WithMaxSamples(req.MaxSamples))
	}
	if req.Trace {
		opts = append(opts, cqapprox.WithTrace())
	}
	return opts
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
		enc := json.NewEncoder(w) // Encode appends \n: exactly one answer per line
		seq, errf := db.answersErr(ctx, p, rankOpts(req))
		n := 0
		for t := range seq {
			if err := enc.Encode([]int(t)); err != nil {
				return // client gone; ctx cancellation is already unwinding seq
			}
			flush()
			n++
			if s.onStreamAnswer != nil {
				s.onStreamAnswer(n)
			}
		}
		if err := errf(); err != nil {
			// The status is committed at 200, so instrument cannot see
			// this failure — count it here or the stream endpoint would
			// never report errors.
			s.metrics.byName[epStream].errors.Add(1)
			info := mapError(err).info
			_ = enc.Encode(api.ErrorResponse{Error: &info})
			flush()
		}
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
