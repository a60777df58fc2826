// Package obs is the observability data model shared by the whole
// stack: structured EXPLAIN output for prepared plans (PlanExplain)
// and per-evaluation execution traces (ExecTrace). The types are
// JSON-tagged because they go onto the wire verbatim (api embeds them
// in /v1/explain and the trace blocks of /v1/eval and /v1/count) and
// carry stable text renderings for the CLI and golden tests.
//
// The package is a leaf: it depends on nothing in the repository, so
// internal/eval, the root API, api and internal/server can all import
// it without cycles.
package obs

import (
	"fmt"
	"strings"
)

// Phase is one named timed span of a prepare or an evaluation. Prepare
// phases: parse, minimize, search, plan. Eval phases: semijoin-down
// (the one, bottom-up reduction pass), join (the answer search over
// the reduced forest) and project (cutting the collected answers into
// tuples and sorting them); ranked reads report ranked (the ordered
// search), and counting by DP or sampler count and count-estimate.
type Phase struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// PlanExplain is the structured EXPLAIN of one prepared query: what
// the static pipeline decided, per join-forest tree, with no data
// touched. Node variables are rendered as v<id> over the minimized
// tableau's element ids; the query and minimized strings carry the
// human-readable names.
type PlanExplain struct {
	Query         string `json:"query"`
	Minimized     string `json:"minimized,omitempty"`
	Class         string `json:"class,omitempty"`
	Approximation string `json:"approximation,omitempty"`
	Candidates    int    `json:"candidates_inspected,omitempty"`

	// Mode is the evaluation strategy: "yannakakis" (semijoin passes
	// over a join forest, acyclic queries) or "bags" (a memoised search
	// over a tree decomposition, cyclic queries).
	Mode string `json:"mode"`
	// Direct reports where the answer search reads, after the
	// bottom-up semijoin pass: "" (across the needed nodes), "unit"
	// (Boolean: the answer is the empty tuple exactly when every tree
	// has an assignment) or "node <i>" (only node i's rows).
	Direct string `json:"direct,omitempty"`
	// ExactCountable: no tree of the forest needs the sampling
	// estimator to count.
	ExactCountable bool `json:"exact_countable"`
	// Ranked is the ordered-enumeration classification of the head's
	// natural key: "connex" (ranked calls stream out of the reduced
	// forest with early termination) or "fallback" (ranked calls
	// evaluate fully, sort and truncate). Empty for bag plans.
	Ranked string `json:"ranked,omitempty"`
	// Incremental is the view-maintenance classification: "delta"
	// (subscriptions propagate snapshot deltas through the reduced
	// forest) or "fallback" (every update recomputes — bag plans).
	// IndexStats' incremental_evals/incr_fallbacks counters report what
	// actually happened at runtime.
	Incremental string        `json:"incremental,omitempty"`
	Trees       []TreeExplain `json:"trees,omitempty"`
	// Bags is the decomposition a bag plan searches, in pre-order.
	Bags []BagExplain `json:"bags,omitempty"`

	// Prepare phase wall times (parse/minimize/search/plan), measured
	// when the plan was built; zero/absent on renders that never
	// parsed (cache hits report the original build's times).
	Prepare []Phase `json:"prepare,omitempty"`
}

// TreeExplain describes one tree of the join forest.
type TreeExplain struct {
	Root int `json:"root"`
	// CountKind is the counting classification: unit, node, dp or
	// sample.
	CountKind string        `json:"count_kind"`
	Nodes     []NodeExplain `json:"nodes"`
}

// NodeExplain describes one join-forest node (one atom of the
// minimized query) in preorder.
type NodeExplain struct {
	ID     int      `json:"id"`
	Atom   string   `json:"atom"`
	Vars   []string `json:"vars"`
	Parent int      `json:"parent"` // -1 for roots
	Depth  int      `json:"depth"`
	// Needed: the node's subtree holds a head variable the node does
	// not share with its parent (for a root: any head variable), so the
	// answer search reads its rows; other nodes only have to be
	// non-empty.
	Needed bool `json:"needed,omitempty"`
	// Direct: every answer is read from this node's reduced rows, and
	// the bottom-up semijoin pass alone finalises them.
	Direct bool `json:"direct,omitempty"`
}

// BagExplain describes one bag of a bag plan's tree decomposition.
type BagExplain struct {
	ID     int      `json:"id"`
	Vars   []string `json:"vars"`
	Atoms  []string `json:"atoms"`  // the atoms whose variables the bag contains
	Parent int      `json:"parent"` // -1 for roots
	Depth  int      `json:"depth"`
	// Exists: no head variable below the bag is unbound on arrival, so
	// its subtree is an existence check memoised per separator values.
	Exists bool `json:"exists,omitempty"`
}

// Text renders the explain as stable, timing-free text (safe for
// golden tests: it depends only on the plan, never on data or clocks).
func (e *PlanExplain) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %s\n", e.Mode)
	if e.Class != "" {
		fmt.Fprintf(&b, "class: %s\n", e.Class)
	}
	if e.Approximation != "" {
		fmt.Fprintf(&b, "approximation: %s\n", e.Approximation)
	}
	for _, g := range e.Bags {
		b.WriteString(strings.Repeat("  ", g.Depth))
		fmt.Fprintf(&b, "bag [%d] %s:", g.ID, strings.Join(g.Vars, " "))
		for _, a := range g.Atoms {
			b.WriteString(" " + a)
		}
		if g.Exists {
			b.WriteString(" exists")
		}
		b.WriteString("\n")
	}
	if e.Mode != "yannakakis" {
		return b.String()
	}
	if e.ExactCountable {
		b.WriteString("countable: exact\n")
	} else {
		b.WriteString("countable: sample\n")
	}
	if e.Ranked != "" {
		fmt.Fprintf(&b, "ranked: %s\n", e.Ranked)
	}
	if e.Incremental != "" {
		fmt.Fprintf(&b, "incremental: %s\n", e.Incremental)
	}
	if e.Direct != "" {
		fmt.Fprintf(&b, "direct: %s\n", e.Direct)
	}
	for i, t := range e.Trees {
		fmt.Fprintf(&b, "tree %d: count=%s\n", i, t.CountKind)
		for _, n := range t.Nodes {
			b.WriteString(strings.Repeat("  ", n.Depth+1))
			fmt.Fprintf(&b, "[%d] %s", n.ID, n.Atom)
			if n.Needed {
				b.WriteString(" needed")
			}
			if n.Direct {
				b.WriteString(" direct")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// ExecTrace is the per-evaluation ANALYZE record: phase wall times,
// per-node executor counters, and the parallel machinery's activity.
// Produced only when tracing was requested; the trace-off path never
// allocates one.
type ExecTrace struct {
	Mode        string `json:"mode"`
	Parallelism int    `json:"parallelism,omitempty"`
	TotalNS     int64  `json:"total_ns"`
	// Phases in execution order; their sum approximates TotalNS (the
	// remainder is scheduling and bookkeeping between phases).
	Phases []Phase     `json:"phases,omitempty"`
	Nodes  []NodeTrace `json:"nodes,omitempty"`
	// MorselChunks: parallel work units claimed across all morsel
	// loops of the call (0 on a serial run).
	MorselChunks int64 `json:"morsel_chunks,omitempty"`
	// WorkerBusyNS: busy wall time of each extra-worker stint the
	// call's fan-outs spawned, in spawn order — per-worker
	// utilization; the calling goroutine's time is TotalNS itself.
	WorkerBusyNS []int64 `json:"worker_busy_ns,omitempty"`
}

// NodeTrace is one join-forest node's executor counters for a single
// traced evaluation.
type NodeTrace struct {
	ID   int    `json:"id"`
	Atom string `json:"atom,omitempty"`
	// Rows: backing view rows; Live: rows surviving the reduction
	// passes the call ran (the live-bitmap survivor count). Evaluations
	// and enumerating counts run only the bottom-up pass; DP and
	// sampler counts run both.
	Rows int `json:"rows"`
	Live int `json:"live"`
	// SemijoinIn/SemijoinOut: rows entering/surviving the node's
	// semijoin passes, summed over passes.
	SemijoinIn  int64 `json:"semijoin_rows_in"`
	SemijoinOut int64 `json:"semijoin_rows_out"`
	Passes      int64 `json:"passes,omitempty"`
	// IndexBuilds: indexes built to filter (or count through) this
	// node. IndexProbes: rows tested against the source (index probe
	// or dense summary).
	IndexBuilds uint64 `json:"index_builds,omitempty"`
	IndexProbes uint64 `json:"index_probes,omitempty"`
	// DenseSteps: steps into this node that tested its rows against a
	// dense summary of the source's live keys instead of an index.
	DenseSteps int64 `json:"dense_steps,omitempty"`
}

// Text renders the trace for humans (CLI `eval -trace`). Timings vary
// run to run; don't golden-test this.
func (t *ExecTrace) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: mode=%s parallelism=%d total=%.3fms\n",
		t.Mode, t.Parallelism, float64(t.TotalNS)/1e6)
	for _, p := range t.Phases {
		fmt.Fprintf(&b, "  phase %-14s %.3fms\n", p.Name, float64(p.NS)/1e6)
	}
	for _, n := range t.Nodes {
		fmt.Fprintf(&b, "  node [%d] %s: rows=%d live=%d semijoin=%d->%d probes=%d builds=%d dense=%d\n",
			n.ID, n.Atom, n.Rows, n.Live, n.SemijoinIn, n.SemijoinOut, n.IndexProbes, n.IndexBuilds, n.DenseSteps)
	}
	if t.MorselChunks > 0 || len(t.WorkerBusyNS) > 0 {
		fmt.Fprintf(&b, "  morsels: chunks=%d extra-workers=%d\n", t.MorselChunks, len(t.WorkerBusyNS))
	}
	return b.String()
}
