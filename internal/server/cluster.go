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
//	≥2 partitioned occurrences → the local full copy again
//	  (scatter_fallbacks): per-shard evaluation could join tuples
//	  living on different shards. So does a request whose verb cannot
//	  scatter (see the table in pipeline.go): traced requests, streams
//	  and non-summable counts.
//
// The coordinator forwards the approximation it chose with exact:true
// — never the original query plus a class — so every shard evaluates
// the identical query no matter how its local search is configured.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
	"cqapprox/internal/cluster"
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

// route decides one evaluation of p against the sharded database pl
// and accounts it: the partitioned-occurrence count of the evaluated
// query drives the trichotomy documented at the top of the file, and
// scatterable says whether the request could fan out at all (traced
// requests, streams and non-summable counts cannot). It returns true
// when the caller should scatter — the scatter bumps scatter_evals on
// completion — and otherwise bumps routed_local or scatter_fallbacks.
func (ctl *clusterCtl) route(p *cqapprox.PreparedQuery, pl *cluster.Placement, scatterable bool) bool {
	switch occ := p.PartitionedOccurrences(pl.Partitioned); {
	case occ == 0:
		ctl.routedLocal.Add(1)
	case occ == 1 && scatterable:
		return true
	default:
		ctl.scatterFallbacks.Add(1)
	}
	return false
}

// forward builds the peer request of a scatter: the chosen
// approximation as an exact inline query (deterministic on every
// shard), the database name, and the pass-through knobs, with the
// order names translated to the approximation's head.
func forward(p *cqapprox.PreparedQuery, c call) (api.PeerEvalRequest, error) {
	order, err := p.ForwardOrder(c.req.Order)
	if err != nil {
		return api.PeerEvalRequest{}, err
	}
	fwd := api.PeerEvalRequest{Mode: string(c.verb)}
	fwd.Query = p.Approx().String()
	fwd.Exact = true
	fwd.DB = c.req.DB
	fwd.Parallelism = c.req.Parallelism
	fwd.TimeoutMS = c.req.TimeoutMS
	fwd.Order = order
	fwd.Descending = c.req.Descending
	fwd.Limit = c.req.Limit
	fwd.Estimate = c.req.Estimate
	fwd.Epsilon = c.req.Epsilon
	fwd.Delta = c.req.Delta
	fwd.Seed = c.req.Seed
	fwd.MaxSamples = c.req.MaxSamples
	return fwd, nil
}

// errShortCircuit is returned by a fan-out leg whose own result already
// answers the whole request (a bool leg's witness).
var errShortCircuit = errors.New("scatter-gather short-circuited")

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

// scatter fans one call out to every shard — the self shard runs the
// leg in-process on its slice, the peers run it behind /v1/peer/eval —
// and folds the legs with the verb's merge law into exactly the
// single-node result. par is the request's worker budget for the self
// leg (peers clamp the forwarded budget themselves).
func (ctl *clusterCtl) scatter(ctx context.Context, eng *cqapprox.Engine, p *cqapprox.PreparedQuery, c call, par []cqapprox.EvalOption) (legResult, error) {
	start := time.Now()
	fwd, err := forward(p, c)
	if err != nil {
		return legResult{}, err
	}
	n := len(ctl.cfg.Peers)
	parts := make([]legResult, n)
	err = ctl.fanoutLegs(ctx, func(ctx context.Context, shard int) error {
		sc := c.shard(shard, n)
		if shard == ctl.cfg.Self {
			d, ok := eng.DB(shardDBName(c.req.DB))
			if !ok {
				return fmt.Errorf("self shard of %q missing", c.req.DB)
			}
			r, err := sc.leg(ctx, p.Bind(d), sc.opts(par))
			if err != nil {
				return err
			}
			parts[shard] = r
		} else {
			leg := fwd
			leg.Delta, leg.Seed = sc.req.Delta, sc.req.Seed
			resp, err := ctl.peers[shard].PeerEval(ctx, leg)
			if err != nil {
				return &peerError{addr: ctl.cfg.Peers[shard], err: err}
			}
			parts[shard] = legFromPeer(resp)
		}
		if parts[shard].ok {
			return errShortCircuit // a witness anywhere answers the query
		}
		return nil
	})
	if err != nil && !errors.Is(err, errShortCircuit) {
		return legResult{}, err
	}
	out, err := c.merge(p, parts)
	if err != nil {
		return legResult{}, err
	}
	if c.verb == verbCount {
		ctl.countSums.Add(1)
	}
	ctl.scatterEvals.Add(1)
	ctl.fanout.requests.Add(1) // instrument() counts real endpoints; fanout has no handler
	ctl.fanout.record(time.Since(start))
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
	resp, _, _, apiErr := s.storeDB(req.Name, shardDBName(req.Name), req.Database, req.Delta)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	s.cluster.peerDBPushes.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerEval answers POST /v1/peer/eval: one scatter-gather leg,
// evaluated against this node's shard slice under its own admission
// control (per-shard admission — a saturated peer 429s its leg and the
// coordinator surfaces peer_unavailable). The forwarded query is
// always inline + exact, so it hits this node's prepare cache after
// the first leg; cluster routing is never consulted — the leg IS the
// routed work. The request is validated in full before admission and
// prepare, so a malformed leg costs neither.
func (s *Server) handlePeerEval(w http.ResponseWriter, r *http.Request) {
	var req api.PeerEvalRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	c := call{verb(req.Mode), req.CountRequest}
	switch {
	case req.DB == "":
		writeError(w, errBadRequest("db required (peer eval runs against a pushed shard slice)"))
		return
	case !req.Exact || req.Query == "":
		writeError(w, errBadRequest("peer eval requires an inline exact query (the coordinator forwards its chosen approximation)"))
		return
	case c.verb != verbEval && c.verb != verbBool && c.verb != verbCount:
		writeError(w, errBadRequest(`mode must be "eval", "bool" or "count"`))
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
	p, _, _, apiErr := s.resolve(ctx, req.EvalRequest)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	res, err := c.leg(ctx, p.Bind(d), c.opts(s.budgetOpts(p, req.Parallelism)))
	if err != nil {
		writeError(w, mapError(err))
		return
	}
	s.cluster.peerEvals.Add(1)
	writeJSON(w, http.StatusOK, peerBody(res))
}
