package cqapprox

// Incremental view maintenance: the library surface over
// internal/eval's delta-aware executor mode. A BoundQuery's answers
// can be materialised once and then *maintained* across Database
// updates — each Advance propagates the update's delta through the
// plan's reduced join forest and returns the exact answer diff, in
// work proportional to the change instead of the database. This is
// what the server's /v1/subscribe streams to live-query watchers.

import (
	"context"
	"fmt"
	"sync"

	"cqapprox/internal/eval"
)

// AnswerDiff is the exact answer-set change of one Advance: the
// answers that appeared and the answers that vanished, each sorted and
// deduplicated, plus how the diff was computed. Applying added/removed
// to the previous answer set yields the new one exactly — fallbacks
// included.
type AnswerDiff struct {
	Added   Answers
	Removed Answers
	// Version is the database version the maintained state reflects
	// after this advance.
	Version uint64
	// Fallback reports that the update was not propagated
	// incrementally and the state recomputed from scratch instead (the
	// diff is still exact); Reason says why ("" when incremental).
	Fallback bool
	Reason   string
}

// Empty reports a diff that changed nothing.
func (d *AnswerDiff) Empty() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// IncrementalEval is a BoundQuery's maintained answer set: the reduced
// state of one evaluation, advanced by deltas instead of re-run.
// Create one with BoundQuery.Incremental; feed it updates with Advance
// (or Update, which forks the snapshot itself). Safe for concurrent
// use — advances serialise on an internal lock.
type IncrementalEval struct {
	mu sync.Mutex
	p  *PreparedQuery
	db *Database
	st *eval.IncrState
}

// Incremental evaluates the bound query once and captures the reduced
// state for delta maintenance. WithEvalParallelism applies to this
// initial evaluation and to any fallback re-evaluations; other options
// are not supported on the incremental surface (maintained answers are
// always the full set in default order).
func (b *BoundQuery) Incremental(ctx context.Context, opts ...EvalOption) (*IncrementalEval, error) {
	st, err := b.p.plan.NewIncrState(ctx, b.db.snap, b.p.budget(opts))
	if err != nil {
		return nil, err
	}
	return &IncrementalEval{p: b.p, db: b.db, st: st}, nil
}

// Supported reports whether updates can be propagated incrementally at
// all: acyclic (Yannakakis) plans maintain deltas, naive plans fall
// back to a full re-evaluation on every advance.
func (ie *IncrementalEval) Supported() bool { return ie.p.plan.IncrSupported() }

// Database returns the snapshot the maintained answers reflect.
func (ie *IncrementalEval) Database() *Database {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	return ie.db
}

// Version returns the database version the maintained answers reflect.
func (ie *IncrementalEval) Version() uint64 {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	return ie.st.Version()
}

// Answers returns the maintained answer set, sorted and deduplicated —
// always equal to a fresh Eval on the current snapshot. The returned
// slice is shared and must not be modified; it stays valid across
// later advances.
func (ie *IncrementalEval) Answers() Answers {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	return ie.st.Answers()
}

// Advance moves the maintained state to next. When delta is the change
// set that produced next from the current snapshot (one UpdateDB /
// Database.Update link), it is propagated incrementally where the plan
// and budget allow; a nil delta — a wholesale replacement — or a next
// that skipped versions resynchronises with a full re-evaluation. The
// returned diff is exact either way.
func (ie *IncrementalEval) Advance(ctx context.Context, next *Database, delta *Delta) (*AnswerDiff, error) {
	if next == nil {
		return nil, fmt.Errorf("cqapprox: Advance requires a database")
	}
	ie.mu.Lock()
	defer ie.mu.Unlock()
	diff, err := ie.st.Apply(ctx, delta, ie.db.snap, next.snap)
	if err != nil {
		return nil, err
	}
	ie.db = next
	return &AnswerDiff{
		Added:    diff.Added,
		Removed:  diff.Removed,
		Version:  ie.st.Version(),
		Fallback: diff.Fallback,
		Reason:   diff.Reason,
	}, nil
}

// Update forks the current snapshot with delta applied (copy-on-write,
// like Database.Update) and advances the maintained state over the
// fork in one step, returning the new snapshot and the exact diff.
func (ie *IncrementalEval) Update(ctx context.Context, delta *Delta) (*Database, *AnswerDiff, error) {
	ie.mu.Lock()
	defer ie.mu.Unlock()
	next, err := ie.db.Update(delta)
	if err != nil {
		return nil, nil, err
	}
	diff, err := ie.st.Apply(ctx, delta, ie.db.snap, next.snap)
	if err != nil {
		return nil, nil, err
	}
	ie.db = next
	return next, &AnswerDiff{
		Added:    diff.Added,
		Removed:  diff.Removed,
		Version:  ie.st.Version(),
		Fallback: diff.Fallback,
		Reason:   diff.Reason,
	}, nil
}
