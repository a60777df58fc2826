package server

// The cluster layer of the server: coordinator-side scatter-gather
// routing and the peer endpoints it fans out to.
//
// A node with a configured peer list plays both roles at once. As a
// coordinator it keeps every registered database whole under its plain
// name (so subscriptions, traces, incremental maintenance and fallback
// evaluation work unchanged) and additionally splits it along a
// cluster.Placement, pushing each peer its shard slice under an
// internal NUL-prefixed name that client-facing requests cannot
// reach. Eval-by-name then routes per request on the evaluated
// (approximated) query:
//
//	0 partitioned atom occurrences → the local full copy answers
//	  (routed_local): every referenced relation is replicated, so
//	  no fan-out could help.
//	1 partitioned occurrence → scatter-gather (scatter_evals): the
//	  union of per-shard answer sets equals the full answer set (see
//	  package cluster), and the deterministic merge makes the result
//	  byte-identical to single-node evaluation.
//	≥2 partitioned occurrences — or a traced request — → the local
//	  full copy again (scatter_fallbacks): per-shard evaluation could
//	  join tuples living on different shards.
//
// The coordinator forwards the approximation it chose with exact:true
// — never the original query plus a class — so every shard evaluates
// the identical query no matter how its local search is configured.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/cluster"
	"cqapprox/internal/count"
)

// shardDBPrefix scopes the internal registrations holding shard
// slices. The NUL byte cannot appear in a client-supplied name (the
// client-facing handlers reject it), so shard slices can never collide
// with — or be addressed as — a client registration.
const shardDBPrefix = "\x00shard\x00"

func shardDBName(name string) string { return shardDBPrefix + name }

// peerError marks a failed coordinator→peer call; mapError translates
// it to 502 peer_unavailable.
type peerError struct {
	addr string
	err  error
}

func (e *peerError) Error() string { return fmt.Sprintf("peer %s: %v", e.addr, e.err) }
func (e *peerError) Unwrap() error { return e.err }

// clusterCtl is the per-node cluster state: the ring, the peer
// clients, the recorded placements, and the counters behind the
// cluster block of /v1/stats.
type clusterCtl struct {
	cfg  cluster.Config
	ring *cluster.Ring
	// peers is aligned with cfg.Peers; the self slot is nil (the self
	// shard is served in-process, never over HTTP).
	peers []*client.Client

	mu  sync.RWMutex
	dbs map[string]*cluster.Placement

	scatterEvals     atomic.Uint64
	routedLocal      atomic.Uint64
	scatterFallbacks atomic.Uint64
	countSums        atomic.Uint64
	deltaForwards    atomic.Uint64
	peerErrors       atomic.Uint64
	peerEvals        atomic.Uint64
	peerDBPushes     atomic.Uint64
	fanout           endpointMetrics
}

func newClusterCtl(cfg cluster.Config) (*clusterCtl, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctl := &clusterCtl{
		cfg:  cfg,
		ring: cluster.NewRing(cfg.Peers, 0),
		dbs:  map[string]*cluster.Placement{},
	}
	ctl.fanout.minNS.Store(math.MaxInt64)
	ctl.peers = make([]*client.Client, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		if i != cfg.Self {
			ctl.peers[i] = client.New(addr)
		}
	}
	return ctl, nil
}

// placementOf returns the recorded placement of name, nil when the
// database is not sharded (never registered here, or its shard push
// failed and the local full copy serves alone).
func (ctl *clusterCtl) placementOf(name string) *cluster.Placement {
	ctl.mu.RLock()
	defer ctl.mu.RUnlock()
	return ctl.dbs[name]
}

// wireDB renders a structure in the api.Database wire form. Empty
// relations are omitted — the wire form carries no arity for them —
// which is safe: a missing relation evaluates as empty on the peer,
// exactly like an empty one.
func wireDB(s *cqapprox.Structure) api.Database {
	out := api.Database{}
	for _, rel := range s.Relations() {
		ts := s.SortedTuples(rel)
		if len(ts) == 0 {
			continue
		}
		rows := make([][]int, len(ts))
		for i, t := range ts {
			rows[i] = []int(t)
		}
		out[rel] = rows
	}
	return out
}

// wireDelta renders a delta in the api.DeltaChange wire form.
func wireDelta(d *cqapprox.Delta) *api.DeltaChange {
	dc := &api.DeltaChange{Insert: api.Database{}, Delete: api.Database{}}
	for _, rel := range d.Touched() {
		for _, t := range d.Inserts(rel) {
			dc.Insert[rel] = append(dc.Insert[rel], []int(t))
		}
		for _, t := range d.Deletes(rel) {
			dc.Delete[rel] = append(dc.Delete[rel], []int(t))
		}
	}
	return dc
}

// registerSharded splits db along a fresh placement and pushes each
// peer its slice (the self slice registers in-process). The placement
// is recorded — making the name scatter-eligible — only after every
// push succeeded: on partial failure the coordinator's full copy keeps
// serving the name correctly, just without fan-out, and the next
// successful registration overwrites the stragglers.
func (ctl *clusterCtl) registerSharded(ctx context.Context, eng *cqapprox.Engine, name string, db *cqapprox.Structure) error {
	// Drop any placement from a previous registration of the name up
	// front: until every new slice lands, scattering would mix the old
	// shard data with the new full copy.
	ctl.mu.Lock()
	delete(ctl.dbs, name)
	ctl.mu.Unlock()
	pl := cluster.Plan(db, ctl.ring, ctl.cfg.ReplicateThreshold())
	shards := pl.Split(db)
	if _, _, err := eng.RegisterDB(shardDBName(name), shards[ctl.cfg.Self]); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ctl.peers))
	for i, c := range ctl.peers {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			_, err := c.PeerRegisterDB(ctx, api.PeerDBRequest{Name: name, Database: wireDB(shards[i])})
			if err != nil {
				errs[i] = &peerError{addr: ctl.cfg.Peers[i], err: err}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ctl.peerErrors.Add(1)
			return err
		}
	}
	ctl.mu.Lock()
	ctl.dbs[name] = pl
	ctl.mu.Unlock()
	return nil
}

// forwardDelta routes a delta already applied to the local full copy
// to the shards owning the touched relations (replicated relations fan
// to every shard, partitioned ones to the owning shard only). Shard
// slices are idempotent under re-application — inserts of present
// facts and deletes of absent ones are no-ops — so a failed forward
// can simply be retried by re-sending the delta. Returns whether every
// touched shard applied.
func (ctl *clusterCtl) forwardDelta(ctx context.Context, eng *cqapprox.Engine, name string, pl *cluster.Placement, delta *cqapprox.Delta) (bool, error) {
	routed := pl.RouteDelta(delta)
	if d := routed[ctl.cfg.Self]; d != nil {
		if _, err := eng.ApplyDB(shardDBName(name), d); err != nil {
			return false, err
		}
		ctl.deltaForwards.Add(1)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(routed))
	applied := make([]bool, len(routed))
	for i, d := range routed {
		if d == nil || i == ctl.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(i int, d *cqapprox.Delta) {
			defer wg.Done()
			resp, err := ctl.peers[i].PeerRegisterDB(ctx, api.PeerDBRequest{Name: name, Delta: wireDelta(d)})
			if err != nil {
				errs[i] = &peerError{addr: ctl.cfg.Peers[i], err: err}
				return
			}
			applied[i] = resp.Applied
			ctl.deltaForwards.Add(1)
		}(i, d)
	}
	wg.Wait()
	all := true
	for i, d := range routed {
		if d == nil || i == ctl.cfg.Self {
			continue
		}
		if errs[i] != nil {
			ctl.peerErrors.Add(1)
			return false, errs[i]
		}
		all = all && applied[i]
	}
	return all, nil
}

// route classifies one evaluation of p against the sharded database
// pl: the partitioned-occurrence count of the evaluated query drives
// the trichotomy documented at the top of the file. scatter reports
// whether the caller should fan out; the counters are bumped here for
// the two local outcomes and by the scatter paths on completion.
func (ctl *clusterCtl) route(p *cqapprox.PreparedQuery, pl *cluster.Placement) (occ int, scatter bool) {
	occ = p.PartitionedOccurrences(pl.Partitioned)
	switch {
	case occ == 0:
		ctl.routedLocal.Add(1)
	case occ == 1:
		return occ, true
	default:
		ctl.scatterFallbacks.Add(1)
	}
	return occ, false
}

// noteLocal accounts a request against a sharded database that runs
// locally by construction (traced requests, streams, non-summable
// counts): the counters still record which arm of the trichotomy it
// would have taken.
func (ctl *clusterCtl) noteLocal(p *cqapprox.PreparedQuery, pl *cluster.Placement) {
	if p.PartitionedOccurrences(pl.Partitioned) == 0 {
		ctl.routedLocal.Add(1)
	} else {
		ctl.scatterFallbacks.Add(1)
	}
}

// forward builds the peer request shared by every scatter mode: the
// chosen approximation as an exact inline query (deterministic on
// every shard), the database name, and the pass-through knobs.
func (ctl *clusterCtl) forward(p *cqapprox.PreparedQuery, req api.EvalRequest, mode string) (api.PeerEvalRequest, error) {
	order, err := p.ForwardOrder(req.Order)
	if err != nil {
		return api.PeerEvalRequest{}, err
	}
	fwd := api.PeerEvalRequest{Mode: mode}
	fwd.Query = p.Approx().String()
	fwd.Exact = true
	fwd.DB = req.DB
	fwd.Parallelism = req.Parallelism
	fwd.TimeoutMS = req.TimeoutMS
	fwd.Order = order
	fwd.Descending = req.Descending
	fwd.Limit = req.Limit
	return fwd, nil
}

// errShortCircuit is returned by a fan-out leg whose own result already
// answers the whole request (scatterBool's witness).
var errShortCircuit = errors.New("scatter-gather short-circuited")

// selfShard returns this node's shard slice of the sharded database
// name.
func selfShard(eng *cqapprox.Engine, name string) (*cqapprox.Database, error) {
	d, ok := eng.DB(shardDBName(name))
	if !ok {
		return nil, fmt.Errorf("self shard of %q missing", name)
	}
	return d, nil
}

// fanoutLegs runs fn once per shard concurrently (self included, index
// ctl.cfg.Self) and collects the first error. The context is canceled
// as soon as any leg fails, so a dead peer does not pin the fan-out to
// the request deadline. A leg returning errShortCircuit cancels the
// others the same way, and fanoutLegs then reports errShortCircuit
// whatever the other legs saw.
func (ctl *clusterCtl) fanoutLegs(parent context.Context, fn func(ctx context.Context, shard int) error) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(ctl.cfg.Peers))
	for i := range ctl.cfg.Peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(ctx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	// Prefer the originating failure over the cancellations the other
	// legs observed when the first one pulled the plug.
	var first error
	for _, err := range errs {
		if errors.Is(err, errShortCircuit) {
			return err
		}
		if err == nil {
			continue
		}
		if first == nil || (errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled)) {
			first = err
		}
	}
	if first == nil {
		return nil
	}
	ctl.peerErrors.Add(1)
	if parent.Err() != nil {
		// The whole request was canceled or timed out; report that
		// rather than whichever leg noticed first.
		return fmt.Errorf("%w: scatter-gather interrupted: %v", cqapprox.ErrCanceled, first)
	}
	return first
}

// scatterEval fans one materialising evaluation out to every shard and
// merges the partial answer sets into exactly the single-node result.
// opts are the self leg's options (ranking plus the request budget).
func (ctl *clusterCtl) scatterEval(ctx context.Context, eng *cqapprox.Engine, p *cqapprox.PreparedQuery, req api.EvalRequest, opts []cqapprox.EvalOption) (cqapprox.Answers, error) {
	start := time.Now()
	fwd, err := ctl.forward(p, req, "eval")
	if err != nil {
		return nil, err
	}
	parts := make([]cqapprox.Answers, len(ctl.cfg.Peers))
	err = ctl.fanoutLegs(ctx, func(ctx context.Context, shard int) error {
		if shard == ctl.cfg.Self {
			d, err := selfShard(eng, req.DB)
			if err != nil {
				return err
			}
			ans, err := p.Bind(d).Eval(ctx, opts...)
			if err != nil {
				return err
			}
			parts[shard] = ans
			return nil
		}
		resp, err := ctl.peers[shard].PeerEval(ctx, fwd)
		if err != nil {
			return &peerError{addr: ctl.cfg.Peers[shard], err: err}
		}
		ans := make(cqapprox.Answers, len(resp.Answers))
		for i, t := range resp.Answers {
			ans[i] = cqapprox.Tuple(t)
		}
		parts[shard] = ans
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged, err := p.MergeAnswers(parts, opts...)
	if err != nil {
		return nil, err
	}
	ctl.scatterEvals.Add(1)
	ctl.recordFanout(start)
	return merged, nil
}

// recordFanout folds one completed scatter-gather into the fanout
// endpoint metrics: the request counter (instrument() bumps it for real
// endpoints; the fanout pseudo-endpoint has no handler) plus the
// latency histogram.
func (ctl *clusterCtl) recordFanout(start time.Time) {
	ctl.fanout.requests.Add(1)
	ctl.fanout.record(time.Since(start))
}

// scatterBool fans an existence check out and short-circuits on the
// first shard reporting a witness: the remaining legs are canceled, and
// their failures do not matter. opts are the self leg's options.
func (ctl *clusterCtl) scatterBool(ctx context.Context, eng *cqapprox.Engine, p *cqapprox.PreparedQuery, req api.EvalRequest, opts []cqapprox.EvalOption) (bool, error) {
	start := time.Now()
	fwd, err := ctl.forward(p, req, "bool")
	if err != nil {
		return false, err
	}
	err = ctl.fanoutLegs(ctx, func(ctx context.Context, shard int) error {
		var res bool
		if shard == ctl.cfg.Self {
			d, err := selfShard(eng, req.DB)
			if err != nil {
				return err
			}
			if res, err = p.Bind(d).EvalBool(ctx, opts...); err != nil {
				return err
			}
		} else {
			resp, err := ctl.peers[shard].PeerEval(ctx, fwd)
			if err != nil {
				return &peerError{addr: ctl.cfg.Peers[shard], err: err}
			}
			res = resp.Result
		}
		if res {
			return errShortCircuit // a witness anywhere answers the query
		}
		return nil
	})
	hit := errors.Is(err, errShortCircuit)
	if err != nil && !hit {
		return false, err
	}
	ctl.scatterEvals.Add(1)
	ctl.recordFanout(start)
	return hit, nil
}

// scatterCount fans a count out and sums the per-shard results — exact
// counts add because the summability predicate guaranteed disjoint
// per-shard answer sets; estimates add with the per-shard failure
// budget δ split n ways (union bound) and per-shard seeds derived from
// the request seed so shards do not sample in lockstep.
func (ctl *clusterCtl) scatterCount(ctx context.Context, eng *cqapprox.Engine, p *cqapprox.PreparedQuery, req api.CountRequest, opts []cqapprox.CountOption) (*cqapprox.CountResult, error) {
	start := time.Now()
	fwd, err := ctl.forward(p, req.EvalRequest, "count")
	if err != nil {
		return nil, err
	}
	fwd.Estimate = req.Estimate
	fwd.Epsilon = req.Epsilon
	fwd.MaxSamples = req.MaxSamples
	if req.Estimate {
		// Split the failure probability across the shards: if every
		// shard is within (1±ε) with probability 1-δ/n, the sum is
		// within (1±ε) with probability at least 1-δ.
		delta := req.Delta
		if delta == 0 {
			delta = count.DefaultDelta
		}
		fwd.Delta = delta / float64(len(ctl.cfg.Peers))
	}
	results := make([]*cqapprox.CountResult, len(ctl.cfg.Peers))
	err = ctl.fanoutLegs(ctx, func(ctx context.Context, shard int) error {
		if shard == ctl.cfg.Self {
			d, err := selfShard(eng, req.DB)
			if err != nil {
				return err
			}
			legOpts := opts
			if req.Estimate {
				legOpts = append(legOpts[:len(legOpts):len(legOpts)], cqapprox.WithDelta(fwd.Delta))
				if req.Seed != nil {
					legOpts = append(legOpts, cqapprox.WithSeed(*req.Seed+int64(shard)))
				}
				res, err := p.Bind(d).EstimateCount(ctx, legOpts...)
				if err != nil {
					return err
				}
				results[shard] = res
				return nil
			}
			res, err := p.Bind(d).Count(ctx, legOpts...)
			if err != nil {
				return err
			}
			results[shard] = res
			return nil
		}
		leg := fwd
		if req.Estimate && req.Seed != nil {
			seed := *req.Seed + int64(shard)
			leg.Seed = &seed
		}
		resp, err := ctl.peers[shard].PeerEval(ctx, leg)
		if err != nil {
			return &peerError{addr: ctl.cfg.Peers[shard], err: err}
		}
		results[shard] = &cqapprox.CountResult{
			Count:     resp.Count,
			Estimate:  resp.Estimate,
			Estimated: resp.Estimated,
			Mode:      resp.Mode,
			Samples:   resp.Samples,
			Batches:   resp.Batches,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Echo the shards' common mode so an exact summed count is
	// byte-identical to the single-node response; "exact-sum" only
	// when the shards took different paths.
	out := &cqapprox.CountResult{Mode: results[0].Mode}
	estimated := false
	for _, r := range results {
		if r.Mode != out.Mode {
			out.Mode = "exact-sum"
		}
		var carry uint64
		out.Count, carry = bits.Add64(out.Count, r.Count, 0)
		if carry != 0 {
			return nil, fmt.Errorf("scatter count overflows uint64")
		}
		if r.Estimated {
			estimated = true
			out.Estimate += r.Estimate
		} else {
			out.Estimate += float64(r.Count)
		}
		out.Samples += r.Samples
		out.Batches += r.Batches
	}
	if estimated {
		out.Estimated = true
		out.Mode = "estimate-sum"
		out.Count = uint64(math.Round(out.Estimate))
		// Echo the accuracy target the sum satisfies: the request's ε
		// (or the default every shard used) and the undivided δ.
		out.Epsilon = req.Epsilon
		if out.Epsilon == 0 {
			out.Epsilon = count.DefaultEpsilon
		}
		out.Delta = req.Delta
		if out.Delta == 0 {
			out.Delta = count.DefaultDelta
		}
	}
	ctl.countSums.Add(1)
	ctl.scatterEvals.Add(1)
	ctl.recordFanout(start)
	return out, nil
}

// stats assembles the cluster block of /v1/stats.
func (ctl *clusterCtl) stats() *api.ClusterStats {
	ctl.mu.RLock()
	sharded := len(ctl.dbs)
	rep, part := 0, 0
	for _, pl := range ctl.dbs {
		r, p := pl.Counts()
		rep += r
		part += p
	}
	ctl.mu.RUnlock()
	return &api.ClusterStats{
		Nodes:                len(ctl.cfg.Peers),
		Self:                 ctl.cfg.Self,
		ShardedDBs:           sharded,
		ReplicatedRelations:  rep,
		PartitionedRelations: part,
		ScatterEvals:         ctl.scatterEvals.Load(),
		RoutedLocal:          ctl.routedLocal.Load(),
		ScatterFallbacks:     ctl.scatterFallbacks.Load(),
		CountSums:            ctl.countSums.Load(),
		DeltaForwards:        ctl.deltaForwards.Load(),
		PeerErrors:           ctl.peerErrors.Load(),
		PeerEvals:            ctl.peerEvals.Load(),
		PeerDBPushes:         ctl.peerDBPushes.Load(),
		Fanout:               ctl.fanout.snapshot(),
	}
}

// handlePeerDB answers POST /v1/peer/db: store (or delta-update) this
// node's shard slice of a sharded database under its internal name.
// Peer pushes hold an eval admission slot exactly like client-facing
// /v1/db work — the structure build is data-sized.
func (s *Server) handlePeerDB(w http.ResponseWriter, r *http.Request) {
	var req api.PeerDBRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" || strings.ContainsRune(req.Name, 0) {
		writeError(w, errBadRequest("name required (no NUL bytes)"))
		return
	}
	if !s.acquire(s.evalSem, w) {
		return
	}
	defer release(s.evalSem)
	internal := shardDBName(req.Name)
	if req.Delta != nil {
		delta, err := req.Delta.ToDelta()
		if err != nil {
			writeError(w, errBadRequest(err.Error()))
			return
		}
		if _, ok := s.eng.DB(internal); !ok {
			writeError(w, errUnknownDB(req.Name))
			return
		}
		u, err := s.eng.ApplyDB(internal, delta)
		if err != nil {
			writeError(w, errBadRequest(err.Error()))
			return
		}
		s.cluster.peerDBPushes.Add(1)
		writeJSON(w, http.StatusOK, api.RegisterDBResponse{
			Name:      req.Name,
			Version:   u.Next.Version(),
			Relations: len(u.Next.Relations()),
			Facts:     u.Next.NumFacts(),
			Replaced:  true,
			Applied:   true,
		})
		return
	}
	db, err := req.Database.ToStructure()
	if err != nil {
		writeError(w, errBadRequest(err.Error()))
		return
	}
	d, replaced, err := s.eng.RegisterDB(internal, db)
	if err != nil {
		writeError(w, errBadRequest(err.Error()))
		return
	}
	s.cluster.peerDBPushes.Add(1)
	writeJSON(w, http.StatusOK, api.RegisterDBResponse{
		Name:      req.Name,
		Version:   d.Version(),
		Relations: len(d.Relations()),
		Facts:     d.NumFacts(),
		Replaced:  replaced,
	})
}

// handlePeerEval answers POST /v1/peer/eval: one scatter-gather leg,
// evaluated against this node's shard slice under its own admission
// control (per-shard admission — a saturated peer 429s its leg and the
// coordinator surfaces peer_unavailable). The forwarded query is
// always inline + exact, so it hits this node's prepare cache after
// the first leg; cluster routing is never consulted — the leg IS the
// routed work.
func (s *Server) handlePeerEval(w http.ResponseWriter, r *http.Request) {
	var req api.PeerEvalRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.DB == "" {
		writeError(w, errBadRequest("db required (peer eval runs against a pushed shard slice)"))
		return
	}
	if !req.Exact || req.Query == "" {
		writeError(w, errBadRequest("peer eval requires an inline exact query (the coordinator forwards its chosen approximation)"))
		return
	}
	d, ok := s.eng.DB(shardDBName(req.DB))
	if !ok {
		writeError(w, errUnknownDB(req.DB))
		return
	}
	if !s.acquire(s.evalSem, w) {
		return
	}
	defer release(s.evalSem)
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	p, apiErr := s.resolve(ctx, req.EvalRequest)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	par := s.budgetOpts(p, req.Parallelism)
	b := p.Bind(d)
	var resp api.PeerEvalResponse
	switch req.Mode {
	case "eval":
		ans, err := b.Eval(ctx, append(rankOpts(req.EvalRequest), par...)...)
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		resp.Answers = api.FromAnswers(ans)
	case "bool":
		res, err := b.EvalBool(ctx, par...)
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		resp.Result = res
	case "count":
		opts := append(countOpts(req.CountRequest), par...)
		var res *cqapprox.CountResult
		var err error
		if req.Estimate {
			res, err = b.EstimateCount(ctx, opts...)
		} else {
			res, err = b.Count(ctx, opts...)
		}
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		resp.Count = res.Count
		resp.Estimate = res.Estimate
		resp.Estimated = res.Estimated
		resp.Mode = res.Mode
		resp.Samples = res.Samples
		resp.Batches = res.Batches
	default:
		writeError(w, errBadRequest(`mode must be "eval", "bool" or "count"`))
		return
	}
	s.cluster.peerEvals.Add(1)
	writeJSON(w, http.StatusOK, resp)
}
