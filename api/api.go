// Package api defines the wire types of the cqapproxd HTTP/JSON API.
// The server (internal/server), the typed client (client), and the
// CLI's -json mode (cmd/cqapprox) all encode and decode exactly these
// types, so the three surfaces can never drift apart.
//
// Queries travel as strings in the library's rule notation
// ("Q(x) :- E(x,y)"); databases as a relation-name → tuple-list map;
// answers as plain integer tuples. Prepared queries are addressed by an
// opaque Key returned from /v1/prepare: the engine's canonical cache
// key, base64-encoded, stable across alpha-equivalent queries.
package api

import (
	"encoding/base64"
	"fmt"
	"strings"

	"cqapprox"
)

// Options mirrors cqapprox.Options on the wire. Fields are pointers so
// a request can override one knob while inheriting the server's
// configured defaults for the rest (0 is a meaningful value for
// MaxExtraAtoms/FreshVars, so absence must be distinguishable). A nil
// *Options means "all defaults".
type Options struct {
	MaxVars       *int `json:"max_vars,omitempty"`
	MaxExtraAtoms *int `json:"max_extra_atoms,omitempty"`
	FreshVars     *int `json:"fresh_vars,omitempty"`
}

// Int is a literal-pointer helper for building Options values.
func Int(n int) *int { return &n }

// ToOptions resolves o against the default options def: every absent
// field keeps def's value.
func (o *Options) ToOptions(def cqapprox.Options) cqapprox.Options {
	out := def
	if o == nil {
		return out
	}
	if o.MaxVars != nil {
		out.MaxVars = *o.MaxVars
	}
	if o.MaxExtraAtoms != nil {
		out.MaxExtraAtoms = *o.MaxExtraAtoms
	}
	if o.FreshVars != nil {
		out.FreshVars = *o.FreshVars
	}
	return out
}

// Database is a relational database on the wire: relation name →
// list of tuples. All tuples of one relation must have equal, nonzero
// length (the relation's arity).
type Database map[string]Rows

// ToStructure validates d and converts it to a relational structure.
func (d Database) ToStructure() (*cqapprox.Structure, error) {
	db := cqapprox.NewStructure()
	for rel, tuples := range d {
		if rel == "" {
			return nil, fmt.Errorf("database: empty relation name")
		}
		for i, t := range tuples {
			if len(t) == 0 {
				return nil, fmt.Errorf("database: relation %q tuple %d is empty", rel, i)
			}
			if len(t) != len(tuples[0]) {
				return nil, fmt.Errorf("database: relation %q mixes arities %d and %d",
					rel, len(tuples[0]), len(t))
			}
			db.Add(rel, t...)
		}
	}
	return db, nil
}

// FromAnswers converts an answer set to its wire form (never nil, so
// an empty set encodes as [] rather than null). Encoders that write
// answers straight from the engine's tuples (AppendEvalResponse and its
// kin) need no conversion.
func FromAnswers(a cqapprox.Answers) Rows {
	out := make(Rows, len(a))
	for i, t := range a {
		out[i] = []int(t)
	}
	return out
}

// PrepareRequest is the body of POST /v1/prepare. Exactly one of Class
// (a class name, see ParseClass) or Exact must be set: Exact prepares
// the query itself, without approximation. Options may accompany a
// Class only — exact preparations always run under the server's
// defaults (that is how the engine keys them), and the server rejects
// the combination rather than silently ignoring the options.
type PrepareRequest struct {
	Query     string   `json:"query"`
	Class     string   `json:"class,omitempty"`
	Exact     bool     `json:"exact,omitempty"`
	Options   *Options `json:"options,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// PrepareResponse summarizes a prepared query: the static plan the
// engine cached, plus the Key that later Eval/Stream requests may pass
// instead of re-sending the query.
type PrepareResponse struct {
	Key                 string   `json:"key"`
	Query               string   `json:"query"`
	Minimized           string   `json:"minimized"`
	Class               string   `json:"class,omitempty"`
	Approximation       string   `json:"approximation,omitempty"`
	Approximations      []string `json:"approximations,omitempty"`
	Plan                string   `json:"plan"` // "yannakakis" or "bags"
	CandidatesInspected int      `json:"candidates_inspected"`
	CacheHit            bool     `json:"cache_hit"`
}

// NewPrepareResponse builds the wire summary of a prepared query. key
// is the already-encoded wire key (see EncodeKey); the cache-hit flag
// comes from the PreparedQuery itself, so it agrees with CacheStats
// even under concurrent preparation.
func NewPrepareResponse(p *cqapprox.PreparedQuery, key string) *PrepareResponse {
	resp := &PrepareResponse{
		Key:                 key,
		Query:               p.Query().String(),
		Minimized:           p.Minimized().String(),
		Plan:                p.PlanMode(),
		CandidatesInspected: p.CandidatesInspected(),
		CacheHit:            p.CacheHit(),
	}
	if c := p.Class(); c != nil {
		resp.Class = c.Name()
		resp.Approximation = p.Approx().String()
		for _, a := range p.Approximations() {
			resp.Approximations = append(resp.Approximations, a.String())
		}
	}
	return resp
}

// RegisterDBRequest is the body of POST /v1/db: register (or replace)
// the database under Name, or — with Delta instead of Database — apply
// a change set copy-on-write to the existing registration. Later
// eval/stream requests may then carry the name in EvalRequest.DB
// instead of re-shipping the data — and every evaluation against the
// registered snapshot shares its persistent index cache. Database and
// Delta are mutually exclusive; a Delta against an unregistered name
// fails with unknown_db. Both forms notify the name's /v1/subscribe
// watchers: a delta propagates incrementally, a replacement forces a
// resynchronising re-evaluation.
type RegisterDBRequest struct {
	Name     string       `json:"name"`
	Database Database     `json:"database,omitempty"`
	Delta    *DeltaChange `json:"delta,omitempty"`
}

// DeltaChange is a database change set on the wire: facts to insert
// and facts to delete, per relation (same shape as Database). Deletes
// of absent facts and inserts of present ones are no-ops, matching
// cqapprox.Delta semantics.
type DeltaChange struct {
	Insert Database `json:"insert,omitempty"`
	Delete Database `json:"delete,omitempty"`
}

// ToDelta converts the wire change set to a library Delta.
func (dc *DeltaChange) ToDelta() (*cqapprox.Delta, error) {
	d := cqapprox.NewDelta()
	for rel, tuples := range dc.Insert {
		if rel == "" {
			return nil, fmt.Errorf("delta: empty relation name")
		}
		for _, t := range tuples {
			d.Insert(rel, t...)
		}
	}
	for rel, tuples := range dc.Delete {
		if rel == "" {
			return nil, fmt.Errorf("delta: empty relation name")
		}
		for _, t := range tuples {
			d.Delete(rel, t...)
		}
	}
	return d, nil
}

// RegisterDBResponse summarizes a successful registration or delta
// update.
type RegisterDBResponse struct {
	Name      string `json:"name"`
	Version   uint64 `json:"version"`           // process-unique snapshot version
	Relations int    `json:"relations"`         // relation symbols registered
	Facts     int    `json:"facts"`             // total tuples registered
	Replaced  bool   `json:"replaced"`          // a previous registration of Name existed
	Applied   bool   `json:"applied,omitempty"` // the request was a delta update
}

// PeerDBRequest is the body of POST /v1/peer/db — the coordinator →
// peer half of a sharded registration. Database carries the peer's
// shard slice of the named database (replicated relations in full,
// partitioned relations filtered to the tuples this peer owns); Delta
// carries the peer's routed slice of a /v1/db delta instead. The peer
// stores the slice under an internal shard-scoped name, so the
// client-visible registry never collides with shard slices.
type PeerDBRequest struct {
	Name     string       `json:"name"`
	Database Database     `json:"database,omitempty"`
	Delta    *DeltaChange `json:"delta,omitempty"`
}

// PeerEvalRequest is the body of POST /v1/peer/eval — one leg of a
// scatter-gather evaluation. The embedded request addresses the
// coordinator's chosen approximation (always Query + Exact: the
// coordinator never forwards a class, so every shard evaluates the
// identical query regardless of local search defaults) and names the
// sharded database via DB; Mode selects what comes back.
type PeerEvalRequest struct {
	CountRequest
	// Mode is "eval" (materialised answers), "bool" (existence) or
	// "count" (the count knobs of the embedded CountRequest apply).
	Mode string `json:"mode"`
}

// PeerEvalResponse is the body of a successful POST /v1/peer/eval;
// which fields are meaningful follows the request's Mode.
type PeerEvalResponse struct {
	Answers Rows `json:"answers,omitempty"` // mode "eval"
	Result  bool `json:"result,omitempty"`  // mode "bool"

	// The mode "count" fields, mirroring CountResponse.
	Count     uint64  `json:"count,omitempty"`
	Estimate  float64 `json:"estimate,omitempty"`
	Estimated bool    `json:"estimated,omitempty"`
	Mode      string  `json:"mode,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	Batches   int     `json:"batches,omitempty"`
}

// EvalRequest is the body of POST /v1/eval, /v1/eval/bool and
// /v1/stream. The prepared query is named either by Key (from a prior
// prepare) or inline by Query plus Class/Exact/Options as in
// PrepareRequest; Key wins when both are present. The database is
// either shipped inline in Database or named by DB (registered earlier
// via POST /v1/db — evaluation then runs against the registered
// snapshot's persistent indexes); the two are mutually exclusive.
type EvalRequest struct {
	Key      string   `json:"key,omitempty"`
	Query    string   `json:"query,omitempty"`
	Class    string   `json:"class,omitempty"`
	Exact    bool     `json:"exact,omitempty"`
	Options  *Options `json:"options,omitempty"`
	Database Database `json:"database,omitempty"`
	DB       string   `json:"db,omitempty"`

	// Parallelism asks the server to evaluate morsel-driven parallel on
	// up to this many workers. 0 inherits the server's configured
	// default (serial unless its engine opted into parallelism); 1
	// forces serial. A budget helps latency for single large
	// evaluations; under concurrent traffic serial is usually right.
	// Whatever the origin, the effective budget is clamped to the
	// server's cap (see StatsResponse.Server.MaxParallelism); answers
	// are identical at any setting.
	Parallelism int   `json:"parallelism,omitempty"`
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`

	// Trace asks the server to attach an execution trace of this one
	// evaluation (per-node semijoin rows, phase wall times, morsel and
	// worker accounting) to the response. Off by default; untraced
	// requests pay nothing. Rejected by /v1/stream (a stream response
	// carries no trace block).
	Trace bool `json:"trace,omitempty"`

	// Order asks for ranked answers: sort by these head variables, most
	// significant first (head positions not named are appended in query
	// order to make the key total). Plans whose join forest admits the
	// key stream it with early termination; others evaluate, sort and
	// truncate (see /v1/explain's "ranked" line and the ranked_evals /
	// rank_fallbacks stats). Descending reverses the order. Limit keeps
	// only the first Limit answers — ordered when Order or Descending is
	// set, an arbitrary prefix otherwise (/v1/stream then closes after
	// Limit lines). All three apply to /v1/eval and /v1/stream only;
	// /v1/eval/bool and /v1/count reject them.
	Order      []string `json:"order,omitempty"`
	Descending bool     `json:"descending,omitempty"`
	Limit      int      `json:"limit,omitempty"`
}

// EvalResponse is the body of a successful POST /v1/eval.
type EvalResponse struct {
	Answers Rows `json:"answers"`
	Count   int  `json:"count"`
	// Trace is the execution trace, present only when the request set
	// EvalRequest.Trace.
	Trace *cqapprox.ExecTrace `json:"trace,omitempty"`
}

// EvalBoolResponse is the body of a successful POST /v1/eval/bool.
type EvalBoolResponse struct {
	Result bool                `json:"result"`
	Trace  *cqapprox.ExecTrace `json:"trace,omitempty"`
}

// CountRequest is the body of POST /v1/count: an EvalRequest (same
// query/database addressing, admission and parallelism semantics as
// /v1/eval) plus the counting knobs. With Estimate false the count is
// exact; with Estimate true the server may sample, and Epsilon/Delta
// set the (1±ε, 1-δ) accuracy target (server defaults: 0.1, 0.05).
// Seed pins the estimator's randomness for reproducible runs (absent
// means the default seed); MaxSamples caps the sampling effort.
type CountRequest struct {
	EvalRequest
	Estimate   bool    `json:"estimate,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Seed       *int64  `json:"seed,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
}

// CountResponse is the body of a successful POST /v1/count.
type CountResponse struct {
	// Count is the answer count: exact when Estimated is false, the
	// rounded estimate otherwise.
	Count uint64 `json:"count"`
	// Estimate is the raw (possibly fractional) estimate; equals
	// float64(Count) for exact results.
	Estimate float64 `json:"estimate"`
	// Estimated reports whether sampling produced the result.
	Estimated bool `json:"estimated"`
	// Mode names the counting path: "exact-dp" (no tree of an acyclic
	// plan samples: DP and single-node search counts), "exact-eval"
	// (some tree's search enumerates it), "exact-enum" (the bag
	// search's answers counted, cyclic plans) or "estimate"; see
	// cqapprox.CountResult.
	Mode string `json:"mode"`
	// Samples and Batches report the estimator's effort (zero when
	// exact).
	Samples int `json:"samples,omitempty"`
	Batches int `json:"batches,omitempty"`
	// Epsilon and Delta echo the accuracy target of an estimate.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Trace is the execution trace, present only when the request set
	// EvalRequest.Trace.
	Trace *cqapprox.ExecTrace `json:"trace,omitempty"`
}

// ExplainRequest is the body of POST /v1/explain. The prepared query
// is addressed exactly as in EvalRequest — by Key from a prior
// prepare, or inline by Query plus Class/Exact/Options (Key wins when
// both are present). Explaining an inline query prepares it (or hits
// the prepare cache) and then renders the cached plan; no database is
// involved.
type ExplainRequest struct {
	Key       string   `json:"key,omitempty"`
	Query     string   `json:"query,omitempty"`
	Class     string   `json:"class,omitempty"`
	Exact     bool     `json:"exact,omitempty"`
	Options   *Options `json:"options,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// ExplainResponse is the body of a successful POST /v1/explain: the
// structured plan description plus its stable text rendering.
type ExplainResponse struct {
	Key     string                `json:"key"`
	Explain *cqapprox.PlanExplain `json:"explain"`
	Text    string                `json:"text"`
}

// SubscribeRequest is the body of POST /v1/subscribe: register a live
// query over a registered database and stream answer diffs as updates
// land. The prepared query is addressed exactly as in EvalRequest (Key
// from a prior prepare, or inline Query plus Class/Exact/Options); the
// database must be registered — DB names it, inline databases cannot
// be subscribed to (nothing would ever update them). The response is
// an NDJSON stream of DiffFrame lines: first an init frame carrying
// the full current answer set, then one frame per update batch. The
// stream ends when the client disconnects, the server drains, or a
// terminal frame with Error set is pushed (e.g. slow_consumer under
// the disconnect policy). TimeoutMS bounds only the setup phase
// (prepare + initial evaluation); the subscription itself is
// unbounded.
type SubscribeRequest struct {
	Key     string   `json:"key,omitempty"`
	Query   string   `json:"query,omitempty"`
	Class   string   `json:"class,omitempty"`
	Exact   bool     `json:"exact,omitempty"`
	Options *Options `json:"options,omitempty"`
	DB      string   `json:"db"`

	// Parallelism is the worker budget for the initial evaluation and
	// any fallback re-evaluations, clamped like EvalRequest.Parallelism.
	Parallelism int   `json:"parallelism,omitempty"`
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
}

// DiffFrame is one line of a /v1/subscribe NDJSON stream: the exact
// answer-set change of one update batch. Applying Removed then Added
// to the previous state yields the answer set at Version. Special
// frames:
//
//   - Init: the first frame; Added is the complete current answer set
//     and Removed is empty (the client's starting state).
//   - Resync: the subscriber fell behind (queue overflow under the
//     resync policy) and updates were dropped; Added is again the
//     complete answer set — replace local state instead of patching.
//   - Error: terminal; the server is about to close the stream (e.g.
//     code slow_consumer under the disconnect policy). No answer data.
//
// Fallback reports that the server could not propagate the batch
// incrementally and re-evaluated instead (the diff is still exact);
// Reason says why.
type DiffFrame struct {
	Version  uint64     `json:"version"`
	Added    Rows       `json:"added,omitempty"`
	Removed  Rows       `json:"removed,omitempty"`
	Init     bool       `json:"init,omitempty"`
	Resync   bool       `json:"resync,omitempty"`
	Fallback bool       `json:"fallback,omitempty"`
	Reason   string     `json:"reason,omitempty"`
	Error    *ErrorInfo `json:"error,omitempty"`
}

// SubscriptionStats are the live-query counters of GET /v1/stats.
type SubscriptionStats struct {
	Active            int64  `json:"active"`              // currently connected subscribers
	Subscriptions     uint64 `json:"subscriptions"`       // subscriptions ever accepted
	Notifications     uint64 `json:"notifications"`       // diff frames pushed (init, diff and resync)
	Resyncs           uint64 `json:"resyncs"`             // resync frames after queue overflow
	SlowConsumerDrops uint64 `json:"slow_consumer_drops"` // subscribers disconnected as slow consumers
}

// ClassifyResponse is the -json output of cqapprox classify (the
// Theorem 5.1 trichotomy); the service may grow a matching endpoint.
type ClassifyResponse struct {
	Query      string       `json:"query"`
	Kind       string       `json:"kind"`
	LoopFreeTW map[int]bool `json:"loop_free_tw"`
}

// CacheStats mirrors cqapprox.CacheStats on the wire. The index
// counters sum the indexed join runtime's activity over every cached
// plan (hash indexes built per evaluation, rows driven through index
// probes, evaluations run).
type CacheStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Entries      int    `json:"entries"`
	IndexBuilds  uint64 `json:"index_builds"`
	IndexProbes  uint64 `json:"index_probes"`
	IndexedEvals uint64 `json:"indexed_evals"`
	// ParallelEvals counts the evaluations that ran with a parallel
	// worker budget (requests whose clamped parallelism exceeded one).
	ParallelEvals uint64 `json:"parallel_evals"`
	// RankedEvals counts ordered evaluations streamed through a
	// lex-connex visit program; RankFallbacks counts ordered
	// evaluations whose key was untractable and fell back to
	// eval+sort+truncate.
	RankedEvals   uint64 `json:"ranked_evals"`
	RankFallbacks uint64 `json:"rank_fallbacks"`
	// The counting subsystem's activity: counts answered exactly,
	// counts answered by the sampling estimator, and the total
	// median-of-means batches those estimates ran.
	ExactCounts     uint64 `json:"exact_counts"`
	EstimatedCounts uint64 `json:"estimated_counts"`
	SampleBatches   uint64 `json:"sample_batches"`
	// The incremental maintenance subsystem's activity: subscription
	// updates propagated delta-incrementally through a reduced forest,
	// and updates that fell back to a full re-evaluation (bag plan,
	// delta past the budget, full replacement, resync).
	IncrementalEvals uint64 `json:"incremental_evals"`
	IncrFallbacks    uint64 `json:"incr_fallbacks"`
}

// EndpointStats are the per-endpoint request counters of GET /v1/stats.
// The latency distribution fields come from a fixed-bucket histogram
// (see internal/server's metrics): Min/Max are exact, the quantiles are
// nearest-rank upper bucket bounds. All are omitted until the endpoint
// has served at least one request.
type EndpointStats struct {
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	Rejected       int64   `json:"rejected"`
	InFlight       int64   `json:"in_flight"`
	LatencyTotalMS float64 `json:"latency_total_ms"`
	LatencyMinMS   float64 `json:"latency_min_ms,omitempty"`
	LatencyMaxMS   float64 `json:"latency_max_ms,omitempty"`
	LatencyP50MS   float64 `json:"latency_p50_ms,omitempty"`
	LatencyP95MS   float64 `json:"latency_p95_ms,omitempty"`
	LatencyP99MS   float64 `json:"latency_p99_ms,omitempty"`
}

// DBRegistryStats mirrors cqapprox.DBStats on the wire: the engine's
// database registry counters plus the snapshot index-cache activity
// aggregated over every currently registered database.
type DBRegistryStats struct {
	Entries       int    `json:"entries"`
	Registered    uint64 `json:"registered"`
	Updates       uint64 `json:"updates"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Facts         int    `json:"facts"`
	Views         int    `json:"views"`
	IndexesCached int    `json:"indexes_cached"`
	IndexBuilds   uint64 `json:"index_builds"`
	IndexHits     uint64 `json:"index_hits"`
}

// ServerLimits reports the server's effective concurrency
// configuration: the admission-control semaphore sizes (defaulted from
// the host's GOMAXPROCS when not set explicitly; 0 means unbounded)
// and the per-request parallelism cap EvalRequest.Parallelism is
// clamped to.
type ServerLimits struct {
	MaxInflightPrepare int `json:"max_inflight_prepare"`
	MaxInflightEval    int `json:"max_inflight_eval"`
	MaxParallelism     int `json:"max_parallelism"`
}

// ClusterStats is the cluster block of GET /v1/stats, present only on
// nodes running with a peer list. The scatter counters live on the
// coordinator receiving the client traffic; PeerEvals/PeerDBPushes
// count the peer side.
type ClusterStats struct {
	Nodes int `json:"nodes"` // cluster size (peer list length)
	Self  int `json:"self"`  // this node's index in the peer list

	// ShardedDBs counts registered databases with a recorded placement;
	// ReplicatedRelations / PartitionedRelations sum their per-relation
	// placement decisions.
	ShardedDBs           int `json:"sharded_dbs"`
	ReplicatedRelations  int `json:"replicated_relations"`
	PartitionedRelations int `json:"partitioned_relations"`

	// The routing trichotomy's counters: evaluations fanned out to the
	// shards, evaluations answered from the local full copy because no
	// partitioned relation was involved, and evaluations that had to
	// fall back to the local full copy (≥2 partitioned occurrences,
	// traced requests, non-summable counts).
	ScatterEvals     uint64 `json:"scatter_evals"`
	RoutedLocal      uint64 `json:"routed_local"`
	ScatterFallbacks uint64 `json:"scatter_fallbacks"`

	// CountSums counts /v1/count requests answered by summing per-shard
	// counts; DeltaForwards counts per-shard delta pushes of /v1/db
	// updates; PeerErrors counts failed peer calls.
	CountSums     uint64 `json:"count_sums"`
	DeltaForwards uint64 `json:"delta_forwards"`
	PeerErrors    uint64 `json:"peer_errors"`

	// The peer side: scatter legs served and shard slices / deltas
	// accepted on /v1/peer/eval and /v1/peer/db.
	PeerEvals    uint64 `json:"peer_evals"`
	PeerDBPushes uint64 `json:"peer_db_pushes"`

	// Fanout is the latency distribution of whole scatter-gather
	// fan-outs (slowest shard to answer, merge included).
	Fanout EndpointStats `json:"fanout"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Cache         CacheStats               `json:"cache"`
	DBs           DBRegistryStats          `json:"dbs"`
	Server        ServerLimits             `json:"server"`
	Subscriptions SubscriptionStats        `json:"subscriptions"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Cluster is present only on cluster-configured nodes, keeping
	// single-node stats payloads byte-identical to earlier releases.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// The stable error codes of ErrorInfo.Code. Each maps to a fixed HTTP
// status; see DESIGN.md §Service layer.
const (
	CodeBadRequest     = "bad_request"      // 400: malformed JSON / missing or invalid fields
	CodeParseError     = "parse_error"      // 400: query syntax error (Line/Col set)
	CodeUnknownKey     = "unknown_key"      // 404: key not in the cache (evicted or foreign)
	CodeUnknownDB      = "unknown_db"       // 404: db name not in the registry (evicted or never registered)
	CodeNotInClass     = "not_in_class"     // 422: no query of the class is contained in Q
	CodeBudgetExceeded = "budget_exceeded"  // 422: query exceeds Options.MaxVars
	CodeOverloaded     = "overloaded"       // 429: admission control rejected the request
	CodeInternal       = "internal"         // 500: unexpected failure
	CodeCanceled       = "canceled"         // 504: deadline expired mid-search/evaluation
	CodePeer           = "peer_unavailable" // 502: a cluster peer failed mid scatter-gather or delta forward

	// CodeSlowConsumer is pushed as a terminal DiffFrame.Error on a
	// /v1/subscribe stream (the response status is long committed at
	// 200): the subscriber's queue overflowed under the disconnect
	// policy and the server is closing the stream. Re-subscribe to
	// resume with a fresh init frame.
	CodeSlowConsumer = "slow_consumer"
)

// ErrorInfo is the error payload common to all endpoints.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Line    int    `json:"line,omitempty"` // parse errors only
	Col     int    `json:"col,omitempty"`  // parse errors only
}

// ErrorResponse wraps ErrorInfo as the body of every non-2xx response
// (and, on /v1/stream, as a terminal NDJSON object line).
type ErrorResponse struct {
	Error *ErrorInfo `json:"error"`
}

// keyEncoding keeps wire keys URL- and JSON-safe: the engine's raw
// cache keys contain NUL separators and arbitrary canonical-form bytes.
var keyEncoding = base64.RawURLEncoding

// EncodeKey converts an engine cache key to its opaque wire form.
func EncodeKey(raw string) string { return keyEncoding.EncodeToString([]byte(raw)) }

// DecodeKey reverses EncodeKey.
func DecodeKey(key string) (string, error) {
	raw, err := keyEncoding.DecodeString(key)
	if err != nil {
		return "", fmt.Errorf("malformed key: %w", err)
	}
	return string(raw), nil
}

// ClassNames lists the class names ParseClass accepts.
func ClassNames() []string {
	return []string{"TW1", "TW2", "TW3", "AC", "HTW1", "HTW2", "GHTW1", "GHTW2"}
}

// ParseClass resolves a wire class name (case-insensitive) to the
// tractable class it denotes.
func ParseClass(name string) (cqapprox.Class, error) {
	switch strings.ToUpper(name) {
	case "TW1":
		return cqapprox.TW(1), nil
	case "TW2":
		return cqapprox.TW(2), nil
	case "TW3":
		return cqapprox.TW(3), nil
	case "AC":
		return cqapprox.AC(), nil
	case "HTW1":
		return cqapprox.HTW(1), nil
	case "HTW2":
		return cqapprox.HTW(2), nil
	case "GHTW1":
		return cqapprox.GHTW(1), nil
	case "GHTW2":
		return cqapprox.GHTW(2), nil
	default:
		return nil, fmt.Errorf("unknown class %q (want %s)",
			name, strings.Join(ClassNames(), ", "))
	}
}
