// Package count is the answer-counting subsystem: exact counts over
// the eval executor's reduced forest or by enumeration, and an
// FPRAS-style sampling estimator for the plans where exact counting is
// not free-connex.
//
// Exact counting takes one of two paths per plan:
//
//   - "exact-dp": the plan is ExactCountable — every tree of an acyclic
//     plan's forest classifies as exactly countable (see eval's count
//     schedule): unit trees, single-node distinct projections, and
//     free-core multiplicity DPs, multiplied across trees over the
//     forest the bottom-up semijoin pass reduced, rooted at the node
//     each tree's count starts from (eval.PrepareCount). No answer
//     tuple is ever materialised.
//   - enumeration (eval.CountEnum): every other plan counts the
//     distinct answers of the search Eval runs — no answer is kept
//     beyond the search's dedup set, and nothing is sorted. The mode
//     names the plan: "exact-eval" for an acyclic plan, where some tree
//     interleaves existential variables between head variables and the
//     search enumerates the bottom-up-reduced forest; "exact-enum" for
//     a bag (cyclic) plan.
//
// Estimation replaces only the "exact-eval" case: each non-countable
// tree gets a Karp–Luby-shaped estimator — sample uniform full
// assignments from the tree's weighted DP, divide the assignment total
// N by the sampled head projection's multiplicity m for an unbiased
// per-sample estimate of the distinct-projection count, then
// median-of-means across batches for the (ε, δ) guarantee. Exactly
// countable trees keep their exact factors; the result is the product.
package count

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"time"

	"cqapprox/internal/eval"
	"cqapprox/internal/obs"
	"cqapprox/internal/relstr"
)

// Result modes.
const (
	ModeExactDP   = "exact-dp"
	ModeExactEval = "exact-eval"
	ModeExactEnum = "exact-enum"
	ModeEstimate  = "estimate"
)

// Options tune an estimated count. The zero value is usable: every
// field falls back to its default.
type Options struct {
	// Epsilon is the relative error target (default 0.1).
	Epsilon float64
	// Delta is the failure probability (default 0.05): the estimate is
	// within (1±ε) of the true count with probability ≥ 1-δ.
	Delta float64
	// Seed makes runs reproducible (default 1). Same plan, database,
	// options and seed ⇒ same estimate.
	Seed int64
	// MaxSamples caps the total samples drawn across the whole call
	// (default 200000); the per-batch size shrinks to fit.
	MaxSamples int
}

// Defaults.
const (
	DefaultEpsilon    = 0.1
	DefaultDelta      = 0.05
	DefaultSeed       = 1
	DefaultMaxSamples = 200000
)

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Delta <= 0 {
		o.Delta = DefaultDelta
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
	return o
}

// Result is the outcome of one counting call.
type Result struct {
	// Count is the exact answer count when Estimated is false, and the
	// rounded estimate otherwise.
	Count uint64
	// Estimate is the raw (possibly fractional) estimate; for exact
	// results it is simply float64(Count).
	Estimate float64
	// Estimated reports whether sampling produced the result.
	Estimated bool
	// Mode names the path taken: "exact-dp" (the DP product),
	// "exact-eval" or "exact-enum" (the search's answers counted, for
	// an acyclic or a bag plan), or "estimate".
	Mode string
	// Samples and Batches are the sampling effort (zero when exact).
	Samples int
	Batches int
	// Epsilon and Delta echo the effective accuracy knobs of an
	// estimated result.
	Epsilon float64
	Delta   float64
}

func exactResult(n uint64, mode string) Result {
	return Result{Count: n, Estimate: float64(n), Mode: mode}
}

// Exact computes the exact answer count of p on sn; traced attaches
// an execution trace of the run (nil otherwise). No mode materialises
// answers: "exact-dp" multiplies per-tree DP counts (its product timed
// as the "count" phase); "exact-eval" and "exact-enum" count the
// answers of the plan's search (eval.CountEnum: an acyclic plan's
// search is the "join" phase, a bag plan traces total time only). The
// error is eval.ErrCountOverflow when the count exceeds uint64.
func Exact(ctx context.Context, p *eval.Plan, sn *relstr.Snapshot, parallel int, traced bool) (Result, *obs.ExecTrace, error) {
	if !p.ExactCountable() {
		n, tr, err := p.CountEnum(ctx, sn, parallel, traced)
		if err != nil {
			return Result{}, nil, err
		}
		p.RecordCount(false, 0)
		if p.Mode() == eval.PlanYannakakis {
			return exactResult(n, ModeExactEval), tr, nil
		}
		return exactResult(n, ModeExactEnum), tr, nil
	}
	start := time.Now()
	run, err := p.PrepareCount(ctx, sn, parallel, traced)
	if err != nil {
		return Result{}, nil, err
	}
	defer run.Close()
	t0 := time.Now()
	n, err := exactProduct(ctx, run)
	run.TracePhase("count", time.Since(t0))
	if err != nil {
		return Result{}, nil, err
	}
	p.RecordCount(false, 0)
	return exactResult(n, ModeExactDP), run.TraceSnapshot(time.Since(start)), nil
}

// exactProduct multiplies the per-tree exact counts of a fully
// countable run.
func exactProduct(ctx context.Context, run *eval.CountRun) (uint64, error) {
	if run.Empty() {
		return 0, nil
	}
	total := uint64(1)
	for t := 0; t < run.Trees(); t++ {
		n, ok, err := run.TreeExact(ctx, t)
		if err != nil {
			return 0, err
		}
		if !ok {
			panic("count: exactProduct on a sampling tree")
		}
		if hi, lo := bits.Mul64(total, n); hi == 0 {
			total = lo
		} else {
			return 0, eval.ErrCountOverflow
		}
	}
	return total, nil
}

// Estimate returns the answer count of p on sn, sampling only where
// exact counting would have to enumerate (the "exact-eval" plans); traced
// attaches an execution trace with the sampling effort in a
// "count-estimate" phase. When every tree counts exactly (or the plan
// is a bag plan) the result is Exact's and Estimated is false — estimation
// never makes a cheap count worse.
func Estimate(ctx context.Context, p *eval.Plan, sn *relstr.Snapshot, parallel int, opts Options, traced bool) (Result, *obs.ExecTrace, error) {
	opts = opts.withDefaults()
	if p.Mode() != eval.PlanYannakakis || p.ExactCountable() {
		return Exact(ctx, p, sn, parallel, traced)
	}
	start := time.Now()
	run, err := p.PrepareCount(ctx, sn, parallel, traced)
	if err != nil {
		return Result{}, nil, err
	}
	defer run.Close()
	if run.Empty() {
		p.RecordCount(false, 0)
		return exactResult(0, ModeExactDP), run.TraceSnapshot(time.Since(start)), nil
	}

	t0 := time.Now()
	var sampleTrees []int
	exactPart := 1.0
	for t := 0; t < run.Trees(); t++ {
		if !run.TreeExactOK(t) {
			sampleTrees = append(sampleTrees, t)
			continue
		}
		n, _, err := run.TreeExact(ctx, t)
		if err != nil {
			return Result{}, nil, err
		}
		if n == 0 {
			p.RecordCount(false, 0)
			run.TracePhase("count", time.Since(t0))
			return exactResult(0, ModeExactDP), run.TraceSnapshot(time.Since(start)), nil
		}
		exactPart *= float64(n)
	}

	// Split the accuracy budget across the k sampled trees: per-tree
	// relative error ε/k and failure δ/k make the product of the tree
	// estimates land within (1±ε) with probability ≥ 1-δ (union bound;
	// Π(1±ε/k) ⊆ 1±ε for ε ≤ 1).
	k := len(sampleTrees)
	rng := rand.New(rand.NewSource(opts.Seed))
	est := exactPart
	samples, batches := 0, 0
	for _, t := range sampleTrees {
		te, err := estimateTree(ctx, run, t, rng, opts.Epsilon/float64(k), opts.Delta/float64(k), opts.MaxSamples/k)
		if err != nil {
			return Result{}, nil, err
		}
		est *= te.mean
		samples += te.samples
		batches += te.batches
	}
	run.TracePhase("count-estimate", time.Since(t0))
	p.RecordCount(true, uint64(batches))
	return Result{
		Count:     uint64(math.Round(est)),
		Estimate:  est,
		Estimated: true,
		Mode:      ModeEstimate,
		Samples:   samples,
		Batches:   batches,
		Epsilon:   opts.Epsilon,
		Delta:     opts.Delta,
	}, run.TraceSnapshot(time.Since(start)), nil
}

type treeEstimate struct {
	mean    float64
	samples int
	batches int
}

// estimateTree runs the median-of-means estimator on one sampling
// tree: a pilot round sizes the batches from the empirical variance
// (Chebyshev, per-batch failure ≤ 1/4), then the median of
// B = Θ(log 1/δ) batch means boosts the confidence to 1-δ.
func estimateTree(ctx context.Context, run *eval.CountRun, t int, rng *rand.Rand, eps, delta float64, budget int) (treeEstimate, error) {
	const pilot = 64
	mean, m2 := 0.0, 0.0
	for i := 0; i < pilot; i++ {
		x, err := run.TreeSample(t, rng)
		if err != nil {
			return treeEstimate{}, err
		}
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	variance := m2 / float64(pilot-1)
	if variance == 0 {
		// Every pilot sample agreed — the tree's projection multiplicity
		// is uniform and the pilot mean is already the exact ratio.
		return treeEstimate{mean: mean, samples: pilot, batches: 1}, nil
	}
	s := int(math.Ceil(4 * variance / (eps * eps * mean * mean)))
	if s < 16 {
		s = 16
	}
	b := int(math.Ceil(8 * math.Log(1/delta)))
	if b%2 == 0 {
		b++
	}
	if budget > 0 && s*b > budget {
		s = budget / b
		if s < 1 {
			s = 1
		}
	}
	means := make([]float64, b)
	total := 0
	for i := range means {
		if err := ctx.Err(); err != nil {
			return treeEstimate{}, err
		}
		sum := 0.0
		for j := 0; j < s; j++ {
			x, err := run.TreeSample(t, rng)
			if err != nil {
				return treeEstimate{}, err
			}
			sum += x
		}
		means[i] = sum / float64(s)
		total += s
	}
	return treeEstimate{mean: median(means), samples: pilot + total, batches: b}, nil
}

func median(xs []float64) float64 {
	// Insertion sort: b is small (tens).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[len(xs)/2]
}
