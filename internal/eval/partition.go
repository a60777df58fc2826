package eval

// Partition-aware evaluation hooks for the cluster layer
// (internal/cluster, internal/server): the deterministic merges that
// recombine per-shard partial results into exactly the single-node
// answer set, and the plan predicates the router branches on. A shard
// is an ordinary database — the server registers each node's slice of
// the partitioned relations as a snapshot — so per-shard evaluation is
// plain evaluation; only the recombination is partition-aware.
//
// The correctness contract is union-decomposability (see package
// cluster): when at most one atom occurrence of the evaluated query
// references a tuple-partitioned relation, the union of per-shard
// answer sets equals the full answer set. The merges below only have
// to make that union deterministic: answers are globally sorted
// (lexicographically, or under a ranked key) and deduplicated, so a
// scatter-gather evaluation is byte-identical to a single-node one.

import (
	"slices"

	"cqapprox/internal/relstr"
)

// MergeAnswers recombines per-shard answer sets into the global one
// under the read's key: concatenate, sort, deduplicate (shards overlap
// on answers witnessed through replicated relations only) and truncate
// at the limit. A plain spec sorts under the shared lexicographic
// tuple order; an ordered one under its full-permutation key. Each
// shard's set was itself evaluated under the same spec — a top-k under
// the same total order when ranked, and the global top-k is contained
// in the union of per-shard top-k sets — so the merge is exact and the
// result byte-identical to a single-node Plan.Eval's. width is the
// answer tuple width (the head length).
func MergeAnswers(parts []Answers, width int, spec RankSpec) Answers {
	var all []relstr.Tuple
	switch len(parts) {
	case 0:
		return nil
	case 1:
		all = parts[0]
	default:
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		all = make([]relstr.Tuple, 0, total)
		for _, p := range parts {
			all = append(all, p...)
		}
	}
	if spec.ordered() {
		sortAnswersBy(all, spec.perm(width), spec.Desc)
	} else {
		sortAnswers(all)
	}
	all = dedupSorted(all)
	if spec.Limit > 0 && len(all) > spec.Limit {
		all = all[:spec.Limit:spec.Limit]
	}
	return all
}

// dedupSorted drops adjacent duplicates of a sorted tuple slice.
func dedupSorted(ts Answers) Answers {
	return slices.CompactFunc(ts, func(a, b relstr.Tuple) bool { return relstr.Compare(a, b) == 0 })
}

// PartitionedOccurrences counts the atom occurrences of q (the query
// this plan evaluates) whose relation partitioned reports true — the
// quantity the cluster routing trichotomy branches on: 0 means any
// shard (or the coordinator's full copy) answers alone, 1 means
// scatter-gather is exact, ≥2 means per-shard evaluation could join
// tuples living on different shards and the coordinator must fall
// back to its full copy.
func (p *Plan) PartitionedOccurrences(partitioned func(rel string) bool) int {
	n := 0
	for _, a := range p.q.Atoms {
		if partitioned(a.Rel) {
			n++
		}
	}
	return n
}

// CountSummable reports whether per-shard answer counts of this plan's
// query sum to the global count: exactly one atom occurrence on a
// partitioned relation, with every argument of that atom a head
// variable. Each answer then determines the partitioned tuple it
// matched, that tuple lives on exactly one shard, so per-shard answer
// sets are disjoint and counts (exact or estimated) add. Boolean
// queries are never summable (their head is empty).
func (p *Plan) CountSummable(partitioned func(rel string) bool) bool {
	head := map[string]bool{}
	for _, v := range p.q.Head {
		head[v] = true
	}
	occ := 0
	for _, a := range p.q.Atoms {
		if !partitioned(a.Rel) {
			continue
		}
		occ++
		if occ > 1 {
			return false
		}
		for _, arg := range a.Args {
			if !head[arg] {
				return false
			}
		}
	}
	return occ == 1
}
