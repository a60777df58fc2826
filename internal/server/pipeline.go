package server

// The verb pipeline: every materialising evaluation — /v1/eval,
// /v1/eval/bool, /v1/count — is one call of a verb, and a verb is one
// leg plus one merge law.
//
//	verb   leg (on one *BoundQuery)          scatterable             merge law
//	eval   Eval, or EvalTrace when traced    !trace                  union; k-way merge when ranked
//	bool   EvalBool, or EvalBoolTrace        !trace                  or, short-circuit on a witness
//	count  Count, or EstimateCount           !trace && CountSummable sum (exact-sum / estimate-sum)
//
// The leg is the whole evaluation on the local path, the coordinator's
// self shard of a scatter, and a peer's /v1/peer/eval — one function
// for all three. /v1/stream enumerates lazily and is never scatterable;
// it binds the same way and routes with scatterable=false.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"net/http"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/internal/eval"
)

// verb names a materialising evaluation; the name is also the
// /v1/peer/eval wire mode.
type verb string

const (
	verbEval  verb = "eval"
	verbBool  verb = "bool"
	verbCount verb = "count"
)

// call is one verb request on its way down the pipeline. eval and bool
// leave the count half of req zero (their handlers reject its knobs).
type call struct {
	verb verb
	req  api.CountRequest
}

// legResult is what a leg returns and a merge law folds: the answers
// (eval), the existence bit (bool) or the count (count), plus the trace
// of a traced call.
type legResult struct {
	ans   cqapprox.Answers
	ok    bool
	count cqapprox.CountResult
	trace *cqapprox.ExecTrace
}

// opts translates the call's knobs into library options, plus the
// clamped worker budget par; knobs a verb cannot honor are inert
// there. Order names resolve against the prepared query the options
// go with: the client's names on the coordinator, the forwarded ones
// (see PreparedQuery.ForwardOrder) on a peer.
func (c call) opts(par []cqapprox.EvalOption) []cqapprox.EvalOption {
	var opts []cqapprox.EvalOption
	if len(c.req.Order) > 0 {
		opts = append(opts, cqapprox.WithOrder(c.req.Order...))
	}
	if c.req.Descending {
		opts = append(opts, cqapprox.WithDescending())
	}
	if c.req.Limit > 0 {
		opts = append(opts, cqapprox.WithLimit(c.req.Limit))
	}
	if c.req.Epsilon > 0 {
		opts = append(opts, cqapprox.WithEpsilon(c.req.Epsilon))
	}
	if c.req.Delta > 0 {
		opts = append(opts, cqapprox.WithDelta(c.req.Delta))
	}
	if c.req.Seed != nil {
		opts = append(opts, cqapprox.WithSeed(*c.req.Seed))
	}
	if c.req.MaxSamples > 0 {
		opts = append(opts, cqapprox.WithMaxSamples(c.req.MaxSamples))
	}
	if c.req.Trace {
		opts = append(opts, cqapprox.WithTrace())
	}
	return append(opts, par...)
}

// leg runs the call's verb on one bound query with already-built
// options (see opts).
func (c call) leg(ctx context.Context, b *cqapprox.BoundQuery, opts []cqapprox.EvalOption) (legResult, error) {
	var r legResult
	var err error
	switch {
	case c.verb == verbEval && c.req.Trace:
		r.ans, r.trace, err = b.EvalTrace(ctx, opts...)
	case c.verb == verbEval:
		r.ans, err = b.Eval(ctx, opts...)
	case c.verb == verbBool && c.req.Trace:
		r.ok, r.trace, err = b.EvalBoolTrace(ctx, opts...)
	case c.verb == verbBool:
		r.ok, err = b.EvalBool(ctx, opts...)
	default:
		var res *cqapprox.CountResult
		if c.req.Estimate {
			res, err = b.EstimateCount(ctx, opts...)
		} else {
			res, err = b.Count(ctx, opts...)
		}
		if err == nil {
			r.count, r.trace = *res, res.Trace
		}
	}
	return r, err
}

// merge is the verb's merge law: it folds the shards' leg results into
// exactly the single-node result. A bool fan-out stops at the first
// witness, so the or may see canceled legs' zero results — harmless.
func (c call) merge(p *cqapprox.PreparedQuery, parts []legResult) (legResult, error) {
	var out legResult
	switch c.verb {
	case verbEval:
		sets := make([]cqapprox.Answers, len(parts))
		for i, r := range parts {
			sets[i] = r.ans
		}
		var err error
		out.ans, err = p.MergeAnswers(sets, c.opts(nil)...)
		return out, err
	case verbBool:
		for _, r := range parts {
			out.ok = out.ok || r.ok
		}
		return out, nil
	}
	// Exact counts add because CountSummable guaranteed disjoint
	// per-shard answer sets; estimates add too, each shard having run
	// with δ/n (see shard). Echo the shards' common mode so an exact
	// summed count is byte-identical to the single-node response;
	// "exact-sum" only when the shards took different paths.
	sum := &out.count
	sum.Mode = parts[0].count.Mode
	for _, r := range parts {
		if r.count.Mode != sum.Mode {
			sum.Mode = "exact-sum"
		}
		var carry uint64
		sum.Count, carry = bits.Add64(sum.Count, r.count.Count, 0)
		if carry != 0 {
			return out, fmt.Errorf("scatter count overflows uint64")
		}
		if r.count.Estimated {
			sum.Estimated = true
			sum.Estimate += r.count.Estimate
		} else {
			sum.Estimate += float64(r.count.Count)
		}
		sum.Samples += r.count.Samples
		sum.Batches += r.count.Batches
	}
	if sum.Estimated {
		sum.Mode = "estimate-sum"
		sum.Count = uint64(math.Round(sum.Estimate))
		// Echo the accuracy target the sum satisfies: the request's ε
		// (or the default every shard used) and the undivided δ.
		sum.Epsilon, sum.Delta = c.req.Epsilon, c.req.Delta
		if sum.Epsilon == 0 {
			sum.Epsilon = eval.DefaultEpsilon
		}
		if sum.Delta == 0 {
			sum.Delta = eval.DefaultDelta
		}
	}
	return out, nil
}

// shard returns shard i of n's share of the call: an estimate splits
// the failure probability δ n ways (if every shard is within (1±ε)
// with probability 1-δ/n, the sum is within (1±ε) with probability at
// least 1-δ) and derives a per-shard seed so shards do not sample in
// lockstep. Everything else runs unchanged on every shard.
func (c call) shard(i, n int) call {
	if !c.req.Estimate {
		return c
	}
	if c.req.Delta == 0 {
		c.req.Delta = eval.DefaultDelta
	}
	c.req.Delta /= float64(n)
	if c.req.Seed != nil {
		seed := *c.req.Seed + int64(i)
		c.req.Seed = &seed
	}
	return c
}

// evalBody is a leg result as the /v1/eval body and peerBody as the
// /v1/peer/eval body (legFromPeer decodes it; fields a verb leaves zero
// are omitted). Both write the answers straight from the engine's
// tuples.
type (
	evalBody legResult
	peerBody legResult
)

func (r evalBody) appendJSON(dst []byte) ([]byte, error) {
	ans := r.ans
	if ans == nil {
		ans = cqapprox.Answers{} // an empty set encodes as [], never null
	}
	return api.AppendEvalResponse(dst, &api.EvalResponse{Count: len(ans), Trace: r.trace}, ans)
}

func (r peerBody) appendJSON(dst []byte) ([]byte, error) {
	return api.AppendPeerEvalResponse(dst, &api.PeerEvalResponse{
		Result:    r.ok,
		Count:     r.count.Count,
		Estimate:  r.count.Estimate,
		Estimated: r.count.Estimated,
		Mode:      r.count.Mode,
		Samples:   r.count.Samples,
		Batches:   r.count.Batches,
	}, r.ans)
}

func legFromPeer(resp *api.PeerEvalResponse) legResult {
	ans := make(cqapprox.Answers, len(resp.Answers))
	for i, t := range resp.Answers {
		ans[i] = cqapprox.Tuple(t)
	}
	return legResult{ans: ans, ok: resp.Result, count: cqapprox.CountResult{
		Count:     resp.Count,
		Estimate:  resp.Estimate,
		Estimated: resp.Estimated,
		Mode:      resp.Mode,
		Samples:   resp.Samples,
		Batches:   resp.Batches,
	}}
}

// run routes the call on the request's database — a scatter when the
// database is sharded and routing says so — and otherwise runs the leg
// on the local binding.
func (s *Server) run(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource, c call) (legResult, error) {
	if db.pl != nil {
		scatterable := !c.req.Trace && (c.verb != verbCount || p.CountSummable(db.pl.Partitioned))
		if s.cluster.route(p, db.pl, scatterable) {
			return s.cluster.scatter(ctx, s.eng, p, c, db.par)
		}
	}
	return c.leg(ctx, p.Bind(db.db), c.opts(db.par))
}

// serveCall is the shared body of the materialising endpoints: the
// evalWith preamble, run, and a 200 carrying the body encode builds
// from the result (plus its trace for the request log).
func (s *Server) serveCall(w http.ResponseWriter, r *http.Request, c call, encode func(legResult) any) {
	s.evalWith(w, r, c.req.EvalRequest, func(ctx context.Context, p *cqapprox.PreparedQuery, db dbSource) {
		res, err := s.run(ctx, p, db, c)
		if err != nil {
			writeError(w, mapError(err))
			return
		}
		setTrace(w, res.trace)
		writeJSON(w, http.StatusOK, encode(res))
	})
}
