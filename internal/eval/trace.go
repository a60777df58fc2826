package eval

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox/internal/obs"
)

// Tracing (ANALYZE) support for the semijoin executor. A traced call
// attaches one pooled execTrace frame to its forest; every hook in the
// hot path is a single nil check on forest.trace, so the trace-off
// path pays nothing and allocates nothing (enforced by
// BenchmarkEvalTraceOff against the committed baseline).
//
// Counter concurrency matches the executor's structure: a node is the
// *target* of semijoin steps from exactly one goroutine at a time (the
// bottom-up steps into a node run serially after its child barrier),
// but per-node counters are atomics anyway — index builds/probes can be
// attributed from concurrently fanned-out sibling subtrees and
// morsels, and the cost only exists while tracing is on.

// execTrace is the pooled per-call trace frame.
type execTrace struct {
	nodes  []nodeTraceCtr
	phases []obs.Phase // appended only from the entry goroutine

	chunks atomic.Int64

	wmu     sync.Mutex
	workers []int64 // busy ns per extra-worker stint, in spawn order
}

// nodeTraceCtr holds one node's counters for a traced call.
type nodeTraceCtr struct {
	passes atomic.Int64
	in     atomic.Int64
	out    atomic.Int64
	builds atomic.Uint64
	probes atomic.Uint64
	dense  atomic.Int64
}

var tracePool = sync.Pool{New: func() any { return &execTrace{} }}

// getExecTrace draws a frame sized for n nodes, zeroed.
func getExecTrace(n int) *execTrace {
	tr := tracePool.Get().(*execTrace)
	if cap(tr.nodes) < n {
		tr.nodes = make([]nodeTraceCtr, n)
	} else {
		tr.nodes = tr.nodes[:n]
		for i := range tr.nodes {
			c := &tr.nodes[i]
			c.passes.Store(0)
			c.in.Store(0)
			c.out.Store(0)
			c.builds.Store(0)
			c.probes.Store(0)
			c.dense.Store(0)
		}
	}
	tr.phases = tr.phases[:0]
	tr.chunks.Store(0)
	tr.workers = tr.workers[:0]
	return tr
}

func putExecTrace(tr *execTrace) { tracePool.Put(tr) }

// phase records one timed span; entry-goroutine only.
func (tr *execTrace) phase(name string, d time.Duration) {
	tr.phases = append(tr.phases, obs.Phase{Name: name, NS: d.Nanoseconds()})
}

// addWorker records the busy time of one extra-worker stint.
func (tr *execTrace) addWorker(d time.Duration) {
	tr.wmu.Lock()
	tr.workers = append(tr.workers, d.Nanoseconds())
	tr.wmu.Unlock()
}

// addChunks records parallel work units claimed by one morsel loop.
func (tr *execTrace) addChunks(n int) { tr.chunks.Add(int64(n)) }

// snapshot renders the frame into the wire/API form. Call after the
// evaluation finished (node liveness is read from the forest).
func (tr *execTrace) snapshot(p *Plan, f *forest, total time.Duration) *obs.ExecTrace {
	out := &obs.ExecTrace{
		Mode:         p.mode.String(),
		Parallelism:  f.par,
		TotalNS:      total.Nanoseconds(),
		Phases:       append([]obs.Phase{}, tr.phases...),
		MorselChunks: tr.chunks.Load(),
	}
	tr.wmu.Lock()
	if len(tr.workers) > 0 {
		out.WorkerBusyNS = append([]int64{}, tr.workers...)
	}
	tr.wmu.Unlock()
	out.Nodes = make([]obs.NodeTrace, len(tr.nodes))
	for i := range tr.nodes {
		c := &tr.nodes[i]
		out.Nodes[i] = obs.NodeTrace{
			ID:          i,
			Atom:        atomString(p.atoms[i]),
			Rows:        f.nodes[i].view.Len(),
			Live:        f.nodes[i].live,
			SemijoinIn:  c.in.Load(),
			SemijoinOut: c.out.Load(),
			Passes:      c.passes.Load(),
			IndexBuilds: c.builds.Load(),
			IndexProbes: c.probes.Load(),
			DenseSteps:  c.dense.Load(),
		}
	}
	return out
}

// clock starts timing a trace phase: the current time on a traced
// forest, the zero time otherwise (a bag plan's nil forest included),
// so untraced calls never read the clock.
func (f *forest) clock() time.Time {
	if f == nil || f.trace == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap records the time since start as phase name of a traced forest.
func (f *forest) lap(name string, start time.Time) {
	if f != nil && f.trace != nil {
		f.trace.phase(name, time.Since(start))
	}
}

// --- EXPLAIN -----------------------------------------------------------

// atomString renders an atom over the minimized tableau's element ids.
func atomString(a patom) string {
	var b strings.Builder
	b.WriteString(a.rel)
	b.WriteByte('(')
	for j, v := range a.args {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "v%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Explain returns the plan's static structure: join-forest shape,
// re-rooting decisions, the nodes the search reads and the counting
// classification. Purely static — no data, no clocks — so the text
// rendering is stable across runs.
func (p *Plan) Explain() *obs.PlanExplain {
	ex := &obs.PlanExplain{Mode: p.mode.String()}
	if p.mode != PlanYannakakis {
		ex.Incremental = "fallback"
		ex.Bags = p.bags.explain()
		return ex
	}
	ex.ExactCountable = p.csched.exact
	if p.ranked != nil {
		ex.Ranked = "connex"
	} else {
		ex.Ranked = "fallback"
	}
	ex.Incremental = "delta"
	// The search reads rows from its head bags; the rest of a reduced
	// forest are existence checks it skips. One head bag is the direct
	// node, none makes the plan unit.
	needed := make([]bool, len(p.atoms))
	var head []int
	for _, b := range p.bags.bags {
		if !b.exist {
			needed[b.atoms[0]] = true
			head = append(head, b.atoms[0])
		}
	}
	switch len(head) {
	case 0:
		ex.Direct = "unit"
	case 1:
		ex.Direct = fmt.Sprintf("node %d", head[0])
	}
	for ti, r := range p.sched.roots {
		te := obs.TreeExplain{
			Root:      r,
			CountKind: p.csched.trees[ti].kind.String(),
		}
		var walk func(i, depth int)
		walk = func(i, depth int) {
			ne := obs.NodeExplain{
				ID:     i,
				Atom:   atomString(p.atoms[i]),
				Parent: p.jt.Parent[i],
				Depth:  depth,
				Needed: needed[i],
				Direct: len(head) == 1 && head[0] == i,
			}
			for _, v := range p.vars[i] {
				ne.Vars = append(ne.Vars, fmt.Sprintf("v%d", v))
			}
			te.Nodes = append(te.Nodes, ne)
			for _, c := range p.sched.children[i] {
				walk(c, depth+1)
			}
		}
		walk(r, 0)
		ex.Trees = append(ex.Trees, te)
	}
	return ex
}
