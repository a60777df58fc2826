package cqapprox

// Cluster-facing hooks of PreparedQuery: the routing predicates and
// result merges internal/server's scatter-gather coordinator needs.
// They live here (not in the server) because they are properties of
// the prepared plan — which query actually gets evaluated, what its
// head looks like — and because library embedders building their own
// distribution layer need exactly the same surface.

import (
	"fmt"

	"cqapprox/internal/eval"
)

// PartitionedOccurrences counts the atom occurrences of the evaluated
// query (the chosen approximation — what Eval actually runs) whose
// relation partitioned reports true. The cluster routing trichotomy
// branches on it: 0 — any full copy answers alone; 1 — scatter-gather
// over shards is exact (union-decomposable); ≥2 — per-shard evaluation
// could join tuples living on different shards, so the coordinator
// must evaluate its full copy instead.
func (p *PreparedQuery) PartitionedOccurrences(partitioned func(rel string) bool) int {
	return p.plan.PartitionedOccurrences(partitioned)
}

// CountSummable reports whether per-shard answer counts sum exactly to
// the global count for this prepared query: exactly one partitioned
// atom occurrence, all of whose arguments are head variables — then
// each answer determines the partitioned tuple it matched, per-shard
// answer sets are disjoint, and counts (exact or estimated) add.
func (p *PreparedQuery) CountSummable(partitioned func(rel string) bool) bool {
	return p.plan.CountSummable(partitioned)
}

// MergeAnswers recombines per-shard partial answer sets into exactly
// the answer set a single-node evaluation under the same options would
// return: sorted lexicographically and deduplicated, or — when the
// options carry WithOrder/WithDescending/WithLimit — sorted under the
// ranked key and truncated. Each part must itself be the result of
// evaluating this query (under the same options) on one shard.
func (p *PreparedQuery) MergeAnswers(parts []Answers, opts ...EvalOption) (Answers, error) {
	r, err := p.read(opts)
	if err != nil {
		return nil, err
	}
	return eval.MergeAnswers(parts, len(p.src.Head), r.Rank), nil
}

// ForwardOrder translates ranked-evaluation order names from the
// original query's head to the evaluated approximation's: a
// coordinator forwards the approximation (not the original query) to
// its peers, so the order names must name that query's head variables.
// Positions correspond — both heads bind the same answer column — and
// repeated head variables compare equal at their later positions, so
// first-position resolution on the peer preserves the order. The error
// wraps ErrBadOrder.
func (p *PreparedQuery) ForwardOrder(order []string) ([]string, error) {
	if len(order) == 0 {
		return nil, nil
	}
	r, err := p.read([]EvalOption{WithOrder(order...)})
	if err != nil {
		return nil, err
	}
	out := make([]string, len(r.Rank.Order))
	for i, pos := range r.Rank.Order {
		if pos >= len(p.chosen.Head) {
			return nil, fmt.Errorf("%w: head width mismatch between query and approximation", ErrBadOrder)
		}
		out[i] = p.chosen.Head[pos]
	}
	return out, nil
}
