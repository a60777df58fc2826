// Package eval implements CQ evaluation with the combined
// complexities the paper contrasts:
//
//   - Naive: backtracking join, |D|^O(|Q|) combined complexity — the
//     generic engine for arbitrary CQs, kept as the independent oracle
//     the plans are tested against; no plan path runs it.
//   - Yannakakis: the classical semijoin algorithm for acyclic CQs,
//     O(|D|·|Q|) per the paper's Section 1 (plus output cost for
//     non-Boolean queries).
//   - Bags: a first-hit search over a tree decomposition of a cyclic
//     CQ, memoised on separator values (bags.go) — the evaluation the
//     TW(k)/HTW(k) approximation classes are chosen for.
//
// A Plan (NewPlan) fixes the strategy once per query — Yannakakis over
// a GYO join tree when the query is acyclic, the bag search otherwise
// — and every evaluation runs through it: one Read request, resolved
// from a call's options, into one of four read verbs (Plan.Eval, Bool,
// Stream, Count). The package-level Eval and EvalBool are the one-shot
// forms, a zero Read over a borrowed structure. Enumeration has one kernel, the bag search: cyclic
// plans run it over their decomposition, and every acyclic answer —
// Eval, streams, exact counts that enumerate, incremental
// re-evaluation — is enumerated by it over the reduced join forest (a
// join tree is a decomposition with one atom per bag), reading live
// rows only.
//
// The semijoin reduction runs on one executor (exec.go): its column
// mappings are precomputed in a schedule (schedule.go) that Plans
// build once at prepare time, and the executor replays it against the
// atom views of a relstr.Snapshot (source.go) — a registered one whose
// views and hash indexes persist across calls, or a per-call
// *Structure borrowed without copying (relstr.Borrow). Row liveness is
// a per-node bitmap (backing rows are shared with the snapshot and
// never mutated), and probes test a dense summary of the source's live
// keys or go through hash indexes keyed on integer column prefixes
// (relstr.HashCols — no string keys anywhere on the hot path). With a
// worker budget above one only the reductions fan out: semijoin probe
// loops split into fixed-size row chunks, and the passes parallelize
// across independent sibling subtrees, with liveness byte-identical to
// a serial run; the search that follows is serial. The string-keyed
// operators this runtime replaced survive in ref_test.go as
// differential oracles.
package eval

import (
	"context"
	"fmt"
	"slices"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
)

// Answers is a deduplicated set of answer tuples in deterministic
// (lexicographic) order.
type Answers []relstr.Tuple

// Contains reports whether a includes t. Answers are sorted, so this
// is a binary search on the shared integer tuple order.
func (a Answers) Contains(t relstr.Tuple) bool {
	_, ok := slices.BinarySearchFunc(a, t, relstr.Compare)
	return ok
}

func sortAnswers(ts []relstr.Tuple) Answers {
	slices.SortFunc(ts, relstr.Compare)
	return ts
}

// Naive evaluates q on db by backtracking search over the query
// variables (the generic NP engine).
func Naive(q *cq.Query, db *relstr.Structure) Answers {
	ans, _ := NaiveCtx(nil, q, db)
	return ans
}

// NaiveCtx is Naive under a context: cancellation aborts the
// backtracking search with a cqerr.ErrCanceled-wrapped error. No Plan
// path runs it: it is the oracle the plans are held to.
func NaiveCtx(ctx context.Context, q *cq.Query, db *relstr.Structure) (Answers, error) {
	tb := q.Tableau()
	var out []relstr.Tuple
	_, err := hom.ProjectCtx(ctx, tb.S, db, nil, tb.Dist, func(vals []int) bool {
		out = append(out, relstr.Tuple(vals).Clone())
		return true
	})
	if err != nil {
		return nil, err
	}
	return sortAnswers(out), nil
}

// NaiveBool evaluates a Boolean query (or reports whether q has any
// answer).
func NaiveBool(q *cq.Query, db *relstr.Structure) bool {
	ok, _ := NaiveBoolCtx(nil, q, db)
	return ok
}

// NaiveBoolCtx is NaiveBool under a context. A found answer wins over
// a late cancellation: the latch stops the search, not the result.
func NaiveBoolCtx(ctx context.Context, q *cq.Query, db *relstr.Structure) (bool, error) {
	tb := q.Tableau()
	found := false
	_, err := hom.ProjectCtx(ctx, tb.S, db, nil, tb.Dist, func([]int) bool {
		found = true
		return false
	})
	if err != nil && !found {
		return false, err
	}
	return found, nil
}

// Eval evaluates q on db through a fresh Plan: Yannakakis when q is
// acyclic, otherwise the bag search. db is borrowed, not copied, and
// the read is the zero Read: serial, plain and untraced.
func Eval(q *cq.Query, db *relstr.Structure) Answers {
	ans, _, _ := NewPlan(q).Eval(nil, relstr.Borrow(db), Read{})
	return ans
}

// EvalBool is the Boolean variant of Eval.
func EvalBool(q *cq.Query, db *relstr.Structure) bool {
	ok, _, _ := NewPlan(q).Bool(nil, relstr.Borrow(db), Read{})
	return ok
}

// --- shared variable-list helpers ------------------------------------

func indexOf(vars []int, v int) int {
	for i, x := range vars {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("eval: variable %d not in %v", v, vars))
}

// sharedVars returns the variables common to a and b, in a's order.
func sharedVars(a, b []int) []int {
	var out []int
	for _, v := range a {
		if slices.Contains(b, v) {
			out = append(out, v)
		}
	}
	return out
}
