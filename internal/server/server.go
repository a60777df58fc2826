// Package server implements cqapproxd's HTTP service layer over a
// cqapprox.Engine: request decoding, admission control, per-request
// deadlines, NDJSON answer streaming, and metrics. The wire contract
// lives in package api; cmd/cqapproxd wires a Server to a listener and
// a lifecycle.
//
// The endpoints:
//
//	POST /v1/prepare    run (or hit the cache for) the static pipeline
//	POST /v1/explain    structured EXPLAIN of a prepared or inline query
//	POST /v1/eval       evaluate a prepared or inline query on a database
//	POST /v1/eval/bool  answer existence only
//	POST /v1/count      answer count, exact or estimated, no materialization
//	POST /v1/stream     NDJSON answers, first answer flushed immediately
//	GET  /v1/stats      engine cache stats + per-endpoint counters
//
// Admission control bounds the number of concurrently running prepares
// (NP-hard searches) and evaluations (polynomial, but data-sized)
// separately; a saturated endpoint fails fast with 429 and Retry-After
// rather than queueing unboundedly.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/internal/cluster"
)

// Config tunes a Server. The zero value selects the documented
// defaults, which scale with the host: the admission semaphores are
// sized from runtime.GOMAXPROCS(0) so a bigger box admits more
// concurrent work without retuning flags.
type Config struct {
	// MaxInflightPrepare bounds concurrently running preparations —
	// each one a potentially exponential search. The bound applies
	// wherever an uncached preparation runs, including inline queries
	// on the eval endpoints; cache hits bypass it. Default
	// max(2, GOMAXPROCS/2) — half the cores, so a burst of searches
	// cannot starve evaluation traffic. Negative means unbounded.
	MaxInflightPrepare int

	// MaxInflightEval bounds concurrently running evaluations and
	// streams (a stream holds its slot until the last answer is
	// written). Default 8×GOMAXPROCS — evaluations are short and
	// IO-interleaved, so moderate oversubscription keeps cores busy
	// without unbounded queueing. Negative means unbounded.
	MaxInflightEval int

	// MaxParallelism caps the per-request evaluation worker budget
	// (EvalRequest.Parallelism is clamped to it). Default GOMAXPROCS;
	// negative disables parallel evaluation (every request runs
	// serial).
	MaxParallelism int

	// DefaultTimeout applies to requests that carry no timeout_ms.
	// Default 30s; negative means no deadline.
	DefaultTimeout time.Duration

	// MaxTimeout clamps client-supplied timeout_ms. Default 2m;
	// negative means no clamp.
	MaxTimeout time.Duration

	// MaxBodyBytes bounds request bodies (databases travel inline).
	// Default 64 MiB.
	MaxBodyBytes int64

	// Logger, when non-nil, receives one structured line per request
	// (id, endpoint, status, elapsed). Nil disables request logging
	// entirely — the hot path then never touches the logger.
	Logger *slog.Logger

	// SlowQuery upgrades requests at least this slow to a Warn line
	// that includes the execution trace when the request ran traced.
	// Zero disables slow-query logging. Requires Logger.
	SlowQuery time.Duration

	// SubscriberQueue bounds each /v1/subscribe connection's pending
	// update queue. A subscriber that cannot drain updates this far
	// ahead of its writes is a slow consumer; SlowConsumerPolicy says
	// what happens then. Default 16; negative means 1.
	SubscriberQueue int

	// SlowConsumerPolicy picks the queue-overflow behaviour of
	// /v1/subscribe: "resync" (the default) drops the queued updates
	// and pushes one resync frame carrying the full answer set;
	// "disconnect" pushes a terminal frame with error code
	// slow_consumer and closes the stream.
	SlowConsumerPolicy string

	// CoalesceWindow batches update bursts per subscriber: after an
	// update wakes a subscription, the server waits this long and folds
	// every further update that lands into the same diff frame
	// (cancelling inserts and deletes net out). Zero still coalesces
	// opportunistically — everything already queued goes into one
	// frame — but never waits.
	CoalesceWindow time.Duration

	// Cluster enables the sharded scatter-gather mode when it lists two
	// or more peers (this node included; see cluster.Config). The zero
	// value keeps the server single-node: no peer endpoints, no cluster
	// stats block, byte-identical behaviour to earlier releases. New
	// panics on an invalid config — cmd/cqapproxd validates flags
	// before construction for a friendly error.
	Cluster cluster.Config
}

// Slow-consumer policies of Config.SlowConsumerPolicy.
const (
	SlowConsumerResync     = "resync"
	SlowConsumerDisconnect = "disconnect"
)

const (
	defaultTimeout         = 30 * time.Second
	defaultMaxTimeout      = 2 * time.Minute
	defaultMaxBodyBytes    = 64 << 20
	defaultSubscriberQueue = 16
)

// defaultMaxInflightPrepare sizes the prepare pool from the host's
// GOMAXPROCS: half the cores, minimum two.
func defaultMaxInflightPrepare() int {
	return max(2, runtime.GOMAXPROCS(0)/2)
}

// defaultMaxInflightEval sizes the eval pool from the host's
// GOMAXPROCS.
func defaultMaxInflightEval() int {
	return 8 * runtime.GOMAXPROCS(0)
}

// withDefaults resolves the zero/negative conventions of Config.
func (c Config) withDefaults() Config {
	switch {
	case c.MaxInflightPrepare == 0:
		c.MaxInflightPrepare = defaultMaxInflightPrepare()
	case c.MaxInflightPrepare < 0:
		c.MaxInflightPrepare = 0 // 0 semaphore = unbounded below
	}
	switch {
	case c.MaxInflightEval == 0:
		c.MaxInflightEval = defaultMaxInflightEval()
	case c.MaxInflightEval < 0:
		c.MaxInflightEval = 0
	}
	switch {
	case c.MaxParallelism == 0:
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	case c.MaxParallelism < 0:
		c.MaxParallelism = 1
	}
	switch {
	case c.DefaultTimeout == 0:
		c.DefaultTimeout = defaultTimeout
	case c.DefaultTimeout < 0:
		c.DefaultTimeout = 0
	}
	switch {
	case c.MaxTimeout == 0:
		c.MaxTimeout = defaultMaxTimeout
	case c.MaxTimeout < 0:
		c.MaxTimeout = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = defaultMaxBodyBytes
	}
	switch {
	case c.SubscriberQueue == 0:
		c.SubscriberQueue = defaultSubscriberQueue
	case c.SubscriberQueue < 0:
		c.SubscriberQueue = 1
	}
	if c.SlowConsumerPolicy == "" {
		c.SlowConsumerPolicy = SlowConsumerResync
	}
	return c
}

// The metric names double as the endpoint keys of /v1/stats.
const (
	epPrepare   = "/v1/prepare"
	epExplain   = "/v1/explain"
	epDB        = "/v1/db"
	epEval      = "/v1/eval"
	epEvalBool  = "/v1/eval/bool"
	epCount     = "/v1/count"
	epStream    = "/v1/stream"
	epSubscribe = "/v1/subscribe"
	epStats     = "/v1/stats"

	// The coordinator→peer endpoints, registered (and counted in
	// /v1/stats) only on cluster-configured nodes.
	epPeerDB   = "/v1/peer/db"
	epPeerEval = "/v1/peer/eval"
)

// Server handles the /v1 API over one engine. Construct with New; a
// Server is safe for concurrent use and is normally wrapped in an
// http.Server by cmd/cqapproxd or an httptest.Server in tests.
type Server struct {
	eng        *cqapprox.Engine
	cfg        Config
	prepareSem chan struct{} // nil = unbounded
	evalSem    chan struct{}
	metrics    *metrics
	mux        *http.ServeMux
	reqID      atomic.Uint64 // request ids for the structured log

	subs      subRegistry   // live /v1/subscribe watchers per database name
	subStats  subStats      // the subscription counters of /v1/stats
	drainCh   chan struct{} // closed by Drain: every subscription ends
	drainOnce sync.Once

	// cluster is the scatter-gather control plane; nil on single-node
	// servers (the common case), so the hot path costs one nil check.
	cluster *clusterCtl

	// onStreamAnswer, when non-nil, is called with the request context
	// after answer n (1-based) of a stream response has been written and
	// flushed. Test seam for asserting streaming order; never set in
	// production.
	onStreamAnswer func(ctx context.Context, n int)

	// onPrepareStart, when non-nil, is called after an uncached
	// preparation has claimed its admission slot, before the engine
	// pipeline runs. Test seam for deterministic admission-control
	// tests; never set in production.
	onPrepareStart func()

	// onSubscribeFrame, when non-nil, is called after frame n (1-based,
	// counting the init frame) of a subscription has been written and
	// flushed. Test seam for parking a subscriber mid-stream to provoke
	// slow-consumer handling deterministically; never set in production.
	onSubscribeFrame func(n int)
}

// New returns a Server over eng. Requests without explicit options use
// the engine's configured search defaults.
func New(eng *cqapprox.Engine, cfg Config) *Server {
	names := []string{epPrepare, epExplain, epDB, epEval, epEvalBool, epCount, epStream, epSubscribe, epStats}
	clustered := cfg.Cluster.Enabled()
	if clustered {
		names = append(names, epPeerDB, epPeerEval)
	}
	s := &Server{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(names...),
		drainCh: make(chan struct{}),
	}
	if clustered {
		ctl, err := newClusterCtl(cfg.Cluster)
		if err != nil {
			panic("server: invalid cluster config: " + err.Error())
		}
		s.cluster = ctl
	}
	if n := s.cfg.MaxInflightPrepare; n > 0 {
		s.prepareSem = make(chan struct{}, n)
	}
	if n := s.cfg.MaxInflightEval; n > 0 {
		s.evalSem = make(chan struct{}, n)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+epPrepare, s.instrument(epPrepare, s.handlePrepare))
	mux.HandleFunc("POST "+epExplain, s.instrument(epExplain, s.handleExplain))
	mux.HandleFunc("POST "+epDB, s.instrument(epDB, s.handleRegisterDB))
	mux.HandleFunc("POST "+epEval, s.instrument(epEval, s.handleEval))
	mux.HandleFunc("POST "+epEvalBool, s.instrument(epEvalBool, s.handleEvalBool))
	mux.HandleFunc("POST "+epCount, s.instrument(epCount, s.handleCount))
	mux.HandleFunc("POST "+epStream, s.instrument(epStream, s.handleStream))
	mux.HandleFunc("POST "+epSubscribe, s.instrument(epSubscribe, s.handleSubscribe))
	mux.HandleFunc("GET "+epStats, s.instrument(epStats, s.handleStats))
	if clustered {
		mux.HandleFunc("POST "+epPeerDB, s.instrument(epPeerDB, s.handlePeerDB))
		mux.HandleFunc("POST "+epPeerEval, s.instrument(epPeerEval, s.handlePeerEval))
	}
	s.mux = mux
	return s
}

// Handler returns the root handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the engine cache counters and the per-endpoint
// request metrics (the body of GET /v1/stats, also published to expvar
// by cmd/cqapproxd).
func (s *Server) Stats() api.StatsResponse {
	cs := s.eng.CacheStats()
	ds := s.eng.DBStats()
	var clusterStats *api.ClusterStats
	if s.cluster != nil {
		clusterStats = s.cluster.stats()
	}
	return api.StatsResponse{
		Cluster: clusterStats,
		Cache: api.CacheStats{
			Hits:             cs.Hits,
			Misses:           cs.Misses,
			Entries:          cs.Entries,
			IndexBuilds:      cs.Indexes.IndexBuilds,
			IndexProbes:      cs.Indexes.IndexProbes,
			IndexedEvals:     cs.Indexes.Evals,
			ParallelEvals:    cs.Indexes.ParallelEvals,
			RankedEvals:      cs.Indexes.RankedEvals,
			RankFallbacks:    cs.Indexes.RankFallbacks,
			ExactCounts:      cs.Indexes.ExactCounts,
			EstimatedCounts:  cs.Indexes.EstimatedCounts,
			SampleBatches:    cs.Indexes.SampleBatches,
			IncrementalEvals: cs.Indexes.IncrementalEvals,
			IncrFallbacks:    cs.Indexes.IncrFallbacks,
		},
		Server: api.ServerLimits{
			MaxInflightPrepare: s.cfg.MaxInflightPrepare,
			MaxInflightEval:    s.cfg.MaxInflightEval,
			MaxParallelism:     s.cfg.MaxParallelism,
		},
		Subscriptions: s.subStats.snapshot(),
		DBs: api.DBRegistryStats{
			Entries:       ds.Entries,
			Registered:    ds.Registered,
			Updates:       ds.Updates,
			Hits:          ds.Hits,
			Misses:        ds.Misses,
			Evictions:     ds.Evictions,
			Facts:         ds.Facts,
			Views:         ds.Views,
			IndexesCached: ds.IndexesCached,
			IndexBuilds:   ds.IndexBuilds,
			IndexHits:     ds.IndexHits,
		},
		Endpoints: s.metrics.snapshot(),
	}
}

// tryAcquire claims a slot of sem without blocking: admission control
// fails fast instead of queueing work the server cannot start. A nil
// sem is unbounded.
func tryAcquire(sem chan struct{}) bool {
	if sem == nil {
		return true
	}
	select {
	case sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire is tryAcquire plus the 429 + Retry-After response on refusal.
func (s *Server) acquire(sem chan struct{}, w http.ResponseWriter) bool {
	if tryAcquire(sem) {
		return true
	}
	writeError(w, errOverloaded())
	return false
}

func release(sem chan struct{}) {
	if sem != nil {
		<-sem
	}
}

// requestContext derives the request's evaluation context: the client's
// timeout_ms (clamped to MaxTimeout) or DefaultTimeout, on top of the
// connection context — so a client disconnect cancels the work too.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if max := s.cfg.MaxTimeout; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}
