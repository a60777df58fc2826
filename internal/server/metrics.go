package server

import (
	"encoding/json"
	"expvar"
	"math"
	"math/bits"
	"net/http"
	"sync/atomic"
	"time"

	"cqapprox"
	"cqapprox/api"
)

// The fixed-bucket latency histogram every endpoint records into is
// log-linear: bucket 0 holds latencies up to 1µs, then each octave
// (2^o, 2^(o+1)] µs is split into four equal steps, so a bucket's bound
// is within 25% of every latency it holds — a few-µs cache hit and a
// deadline running out seconds later are both resolved. Twenty-three
// octaves reach 8.4 s; a final implicit +Inf bucket catches the rest.
const latencyOctaves = 23

// latencyBucketsMS are the buckets' upper bounds in milliseconds.
var latencyBucketsMS = func() (b [1 + 4*latencyOctaves]float64) {
	b[0] = 0.001
	for i := 1; i < len(b); i++ {
		o, step := (i-1)/4, (i-1)%4
		b[i] = float64(int64(250)<<o*int64(5+step)) / 1e6
	}
	return b
}()

// latencyBucket returns the histogram bucket of a latency in O(1): the
// octave is the bit length of ns in quarter-µs units, the step the two
// bits below the leading one.
func latencyBucket(ns int64) int {
	if ns <= 1000 {
		return 0
	}
	m := uint64(ns-1) / 250 // in [4·2^o, 8·2^o) for octave o
	o := bits.Len64(m) - 3
	return min(1+4*o+int(m>>uint(o))-4, len(latencyBucketsMS))
}

// endpointMetrics counts one endpoint's traffic. The counters are
// expvar vars (atomic, individually exportable); Vars assembles them
// into an expvar.Map so cqapproxd can publish the whole set under one
// name without the tests' many Server instances colliding in the
// process-global expvar registry. Latencies additionally feed a
// fixed-bucket histogram plus exact min/max, from which snapshot
// derives the p50/p95/p99 of /v1/stats.
type endpointMetrics struct {
	requests  expvar.Int
	errors    expvar.Int // responses with status >= 400
	rejected  expvar.Int // 429s from admission control (also counted in errors)
	inflight  expvar.Int
	latencyNS expvar.Int // cumulative handler latency

	samples atomic.Int64
	minNS   atomic.Int64 // exact; initialized to MaxInt64, valid once samples > 0
	maxNS   atomic.Int64
	buckets [len(latencyBucketsMS) + 1]atomic.Int64
}

// record folds one handler latency into the counters, the histogram
// and the min/max.
func (em *endpointMetrics) record(d time.Duration) {
	ns := d.Nanoseconds()
	em.latencyNS.Add(ns)
	em.buckets[latencyBucket(ns)].Add(1)
	for {
		cur := em.minNS.Load()
		if ns >= cur || em.minNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := em.maxNS.Load()
		if ns <= cur || em.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	em.samples.Add(1)
}

func (em *endpointMetrics) snapshot() api.EndpointStats {
	st := api.EndpointStats{
		Requests:       em.requests.Value(),
		Errors:         em.errors.Value(),
		Rejected:       em.rejected.Value(),
		InFlight:       em.inflight.Value(),
		LatencyTotalMS: float64(em.latencyNS.Value()) / 1e6,
	}
	n := em.samples.Load()
	if n == 0 {
		return st
	}
	st.LatencyMinMS = float64(em.minNS.Load()) / 1e6
	st.LatencyMaxMS = float64(em.maxNS.Load()) / 1e6
	st.LatencyP50MS = em.quantile(n, 0.50, st.LatencyMaxMS)
	st.LatencyP95MS = em.quantile(n, 0.95, st.LatencyMaxMS)
	st.LatencyP99MS = em.quantile(n, 0.99, st.LatencyMaxMS)
	return st
}

// quantile is the nearest-rank quantile over the histogram: the upper
// bound of the first bucket whose cumulative count reaches ⌈q·n⌉. The
// +Inf bucket reports the observed max instead of infinity.
func (em *endpointMetrics) quantile(n int64, q float64, maxMS float64) float64 {
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range em.buckets {
		cum += em.buckets[i].Load()
		if cum >= rank {
			if i < len(latencyBucketsMS) {
				return latencyBucketsMS[i]
			}
			return maxMS
		}
	}
	return maxMS
}

// latencyVars is the /debug/vars view of the latency distribution,
// derived from the same histogram as /v1/stats so the two surfaces
// can never disagree.
func (em *endpointMetrics) latencyVars() any {
	st := em.snapshot()
	return map[string]float64{
		"min_ms": st.LatencyMinMS,
		"max_ms": st.LatencyMaxMS,
		"p50_ms": st.LatencyP50MS,
		"p95_ms": st.LatencyP95MS,
		"p99_ms": st.LatencyP99MS,
	}
}

type metrics struct {
	byName map[string]*endpointMetrics
}

func newMetrics(names ...string) *metrics {
	m := &metrics{byName: make(map[string]*endpointMetrics, len(names))}
	for _, n := range names {
		em := &endpointMetrics{}
		em.minNS.Store(math.MaxInt64)
		m.byName[n] = em
	}
	return m
}

func (m *metrics) snapshot() map[string]api.EndpointStats {
	out := make(map[string]api.EndpointStats, len(m.byName))
	for name, em := range m.byName {
		out[name] = em.snapshot()
	}
	return out
}

// Vars returns the counters as an unpublished expvar.Map tree
// (endpoint → counter → value) for cmd/cqapproxd to expvar.Publish.
func (m *metrics) Vars() *expvar.Map {
	root := new(expvar.Map).Init()
	for name, em := range m.byName {
		em := em
		sub := new(expvar.Map).Init()
		sub.Set("requests", &em.requests)
		sub.Set("errors", &em.errors)
		sub.Set("rejected", &em.rejected)
		sub.Set("in_flight", &em.inflight)
		sub.Set("latency_ns", &em.latencyNS)
		sub.Set("latency_ms", expvar.Func(em.latencyVars))
		root.Set(name, sub)
	}
	return root
}

// MetricsVars exposes the server's counters for expvar publication.
func (s *Server) MetricsVars() *expvar.Map { return s.metrics.Vars() }

// statusRecorder captures the response status for metrics while
// passing Flush through, so instrumented streaming still streams. A
// handler that ran a traced evaluation parks the trace here, and the
// evaluation endpoints park their prepared query's plan mode, so the
// request log can include them.
type statusRecorder struct {
	http.ResponseWriter
	status int
	trace  *cqapprox.ExecTrace
	plan   string
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// setTrace parks a traced evaluation's trace on the instrumented
// response writer for the slow-query log; a no-op on uninstrumented
// writers (plain httptest recorders in unit tests).
func setTrace(w http.ResponseWriter, tr *cqapprox.ExecTrace) {
	if sr, ok := w.(*statusRecorder); ok {
		sr.trace = tr
	}
}

// setPlan parks the evaluated query's plan mode on the instrumented
// response writer for the request log; a no-op on uninstrumented
// writers.
func setPlan(w http.ResponseWriter, mode string) {
	if sr, ok := w.(*statusRecorder); ok {
		sr.plan = mode
	}
}

// instrument wraps a handler with the endpoint's request, error,
// rejection, in-flight, latency-histogram counters and — when the
// server has a logger — structured request logging.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.byName[name]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Add(1)
		em.inflight.Add(1)
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		h(sr, r)
		elapsed := time.Since(start)
		em.record(elapsed)
		em.inflight.Add(-1)
		if sr.status >= 400 {
			em.errors.Add(1)
		}
		if sr.status == http.StatusTooManyRequests {
			em.rejected.Add(1)
		}
		s.logRequest(name, sr, elapsed)
	}
}

// logRequest emits one structured line per request when the server has
// a logger: Info normally, Warn — with the execution trace, when the
// request ran traced — once the latency crosses Config.SlowQuery.
// Evaluation requests name their plan mode ("yannakakis" or "bags").
func (s *Server) logRequest(name string, sr *statusRecorder, elapsed time.Duration) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	attrs := []any{
		"id", s.reqID.Add(1),
		"endpoint", name,
		"status", sr.status,
		"elapsed_ms", float64(elapsed.Nanoseconds()) / 1e6,
	}
	if sr.plan != "" {
		attrs = append(attrs, "plan", sr.plan)
	}
	if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
		if sr.trace != nil {
			if buf, err := json.Marshal(sr.trace); err == nil {
				attrs = append(attrs, "trace", string(buf))
			}
		}
		lg.Warn("slow request", attrs...)
		return
	}
	lg.Info("request", attrs...)
}
