// Command cqapprox is the CLI for the library: parse and analyse
// conjunctive queries, compute approximations within tractable classes,
// check approximation-hood, and evaluate queries on databases.
//
// Usage:
//
//	cqapprox parse    -q "Q(x) :- E(x,y), E(y,z), E(z,x)"
//	cqapprox classify -q "Q() :- E(x,y), E(y,z), E(z,x)" [-json]
//	cqapprox approx   -q "..." -class TW1 [-all] [-timeout 30s] [-json]
//	cqapprox explain  -q "..." [-class TW1] [-timeout 30s] [-json]
//	cqapprox check    -q "..." -cand "..." -class AC
//	cqapprox eval     -q "..." -db graph.txt
//	                  [-class TW1] [-db-register name] [-stream] [-parallel 8]
//	                  [-order z,x] [-desc] [-limit 10]
//	                  [-trace] [-timeout 30s] [-json]
//	cqapprox count    -q "..." -db graph.txt [-class TW1] [-db-register name]
//	                  [-estimate] [-epsilon 0.1] [-delta 0.05] [-seed 7]
//	                  [-max-samples N] [-parallel 8] [-trace] [-timeout 30s] [-json]
//	cqapprox subscribe -addr http://localhost:8080 -q "..." -db name
//	                  [-class TW1] [-frames N] [-timeout 30s] [-json]
//
// The approx and eval commands run on a cqapprox.Engine: queries are
// prepared once (minimize → approximate → plan) and evaluated through
// the prepared plan, with -timeout cancelling long searches cleanly.
// eval -class evaluates the query's C-approximation instead of the
// query itself; -stream prints answers as they are found instead of
// materialising the sorted answer set; -db-register snapshots the
// database into the engine's registry first and evaluates against the
// snapshot's persistent indexes (the register-once path cqapproxd's
// eval-by-name requests take). eval -order ranks the answers by the
// named head variables (with -limit N only the first N of the order
// are computed where the plan's join forest admits the key — see
// explain's "ranked" line); -desc reverses, -limit alone truncates.
//
// explain prints the prepared plan's structure without touching any
// data: evaluation mode, per-tree join-forest shape, re-rooting and
// dead-step decisions, the counting classification, and the prepare
// phase timings. eval -trace and count -trace additionally print the
// execution trace of the one evaluation that ran — per-node semijoin
// row counts, survivor counts, index activity, phase wall times, and
// morsel/worker accounting for parallel runs.
//
// -json switches classify/approx/eval to machine-readable output in
// exactly the wire shapes the cqapproxd server emits (package api):
// approx prints an api.PrepareResponse (including the cache key a
// server would return), eval an api.EvalResponse / api.EvalBoolResponse,
// eval -stream NDJSON answer lines.
//
// Database files contain one fact per line: a relation name followed by
// integer arguments, e.g. "E 1 2". Lines starting with '#' are ignored.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"iter"
	"os"
	"strconv"
	"strings"
	"time"

	"cqapprox"
	"cqapprox/api"
	"cqapprox/client"
)

// engine is the process-wide prepared-query engine all commands share.
var engine = cqapprox.NewEngine()

// withTimeout builds the command context from a -timeout flag value;
// zero means no deadline.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = cmdParse(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "approx":
		err = cmdApprox(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "count":
		err = cmdCount(os.Args[2:])
	case "subscribe":
		err = cmdSubscribe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cqapprox: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqapprox:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cqapprox <command> [flags]

commands:
  parse     parse a query and report treewidth / acyclicity / hypertree width
  classify  Theorem 5.1 trichotomy classification for graph queries
  approx    compute C-approximations (-class TW1|TW2|TW3|AC|HTW1|HTW2|GHTW1|GHTW2)
            [-all] [-timeout 30s] [-v]
  explain   print the prepared plan's structure (EXPLAIN): join-forest shape,
            re-rooting, dead steps, counting classification; [-class TW1]
            explains the approximation's plan instead of the exact one
  check     decide whether -cand is a C-approximation of -q
  eval      evaluate a query on a database file (one fact per line: "E 1 2")
            [-class TW1] evaluates its approximation; [-stream] streams answers;
            [-db-register name] evaluates via a registered snapshot;
            [-parallel N] evaluates morsel-driven parallel on N workers;
            [-order x,y] ranks answers by head variables ([-desc] reverses);
            [-limit N] keeps only the first N answers (early termination
            where the plan admits the order);
            [-trace] prints the execution trace (ANALYZE) of the run
  count     count answers without materializing them; [-estimate] runs the
            (1±ε, 1-δ) sampling estimator ([-epsilon] [-delta] [-seed]
            [-max-samples]); [-trace] prints the counting pass's execution
            trace; other flags as for eval
  subscribe watch a live query on a running cqapproxd: -addr server, -db
            registered database name; prints the init frame then one diff
            per server-side update ([-frames N] exits after N frames;
            [-json] prints raw api.DiffFrame lines)`)
}

// classFromName resolves a class name; the accepted names are the wire
// names of the HTTP API (api.ParseClass), so CLI and server agree.
func classFromName(name string) (cqapprox.Class, error) {
	return api.ParseClass(name)
}

// emitJSON prints v compactly on stdout — the same encoding the server
// puts on the wire.
func emitJSON(v any) error {
	return json.NewEncoder(os.Stdout).Encode(v)
}

func cmdParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	fmt.Println("query:          ", q)
	fmt.Println("variables:      ", q.NumVars())
	fmt.Println("joins:          ", q.NumJoins())
	fmt.Println("boolean:        ", q.IsBoolean())
	fmt.Println("treewidth:      ", cqapprox.Treewidth(q))
	fmt.Println("acyclic:        ", cqapprox.IsAcyclic(q))
	fmt.Println("hypertree width:", cqapprox.HypertreeWidth(q))
	m := cqapprox.Minimize(q)
	fmt.Println("minimized:      ", m)
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	jsonOut := fs.Bool("json", false, "machine-readable output (api.ClassifyResponse)")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	kind, err := cqapprox.ClassifyGraphTableau(q)
	if err != nil {
		return err
	}
	if *jsonOut {
		resp := api.ClassifyResponse{Query: q.String(), Kind: kind.String(), LoopFreeTW: map[int]bool{}}
		for _, k := range []int{1, 2} {
			ok, err := cqapprox.HasLoopFreeTWkApproximation(q, k)
			if err != nil {
				return err
			}
			resp.LoopFreeTW[k] = ok
		}
		return emitJSON(resp)
	}
	fmt.Println("tableau kind:", kind)
	switch kind {
	case cqapprox.NonBipartite:
		fmt.Println("Theorem 5.1: only the trivial acyclic approximation E(x,x) (Boolean case)")
	case cqapprox.BipartiteUnbalanced:
		fmt.Println("Theorem 5.1: unique acyclic approximation K2↔ (Boolean case)")
	case cqapprox.BipartiteBalanced:
		fmt.Println("Theorem 5.1: nontrivial acyclic approximations, none with a 2-cycle")
	}
	for _, k := range []int{1, 2} {
		ok, err := cqapprox.HasLoopFreeTWkApproximation(q, k)
		if err != nil {
			return err
		}
		fmt.Printf("loop-free TW(%d) approximation exists ((%d)-colorable): %v\n", k, k+1, ok)
	}
	return nil
}

func cmdApprox(args []string) error {
	fs := flag.NewFlagSet("approx", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	className := fs.String("class", "TW1", "target class")
	all := fs.Bool("all", false, "list all approximations up to equivalence")
	over := fs.Bool("over", false, "compute overapproximations (minimal containing C-queries) instead")
	maxVars := fs.Int("maxvars", 10, "variable bound for the search")
	extras := fs.Int("extras", 1, "extra atoms for hypergraph-based classes")
	fresh := fs.Int("fresh", 0, "fresh variables per extra atom")
	timeout := fs.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
	verbose := fs.Bool("v", false, "report plan mode and search statistics")
	jsonOut := fs.Bool("json", false, "machine-readable output (api.PrepareResponse, as the server emits)")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	c, err := classFromName(*className)
	if err != nil {
		return err
	}
	opt := cqapprox.Options{MaxVars: *maxVars, MaxExtraAtoms: *extras, FreshVars: *fresh}
	if *over {
		if *jsonOut {
			return fmt.Errorf("-json does not support -over (no server wire shape for overapproximations yet)")
		}
		overs, err := cqapprox.Overapproximations(q, c, opt)
		if err != nil {
			return err
		}
		fmt.Printf("%d %s-overapproximation(s) of %v:\n", len(overs), c.Name(), q)
		for _, o := range overs {
			fmt.Printf("  %v   (%d joins)\n", o, o.NumJoins())
		}
		return nil
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()
	p, err := engine.PrepareOpt(ctx, q, c, opt)
	if err != nil {
		return err
	}
	if *jsonOut {
		key, err := engine.CacheKey(q, c, opt)
		if err != nil {
			return err
		}
		return emitJSON(api.NewPrepareResponse(p, api.EncodeKey(key)))
	}
	if *all {
		apps := p.Approximations()
		fmt.Printf("%d %s-approximation(s) of %v:\n", len(apps), c.Name(), q)
		for _, a := range apps {
			fmt.Printf("  %v   (%d joins)\n", a, a.NumJoins())
		}
	} else {
		fmt.Println(p.Approx())
	}
	if *verbose {
		fmt.Printf("plan: %s; candidates inspected: %d\n", p.PlanMode(), p.CandidatesInspected())
	}
	return nil
}

// cmdExplain prepares the query (exactly, or its -class approximation)
// and prints the plan's static structure — the same text and wire shape
// the server's POST /v1/explain returns. No database is touched.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	className := fs.String("class", "", "explain the plan of the query's C-approximation (empty = the exact query)")
	timeout := fs.Duration("timeout", 0, "abort the preparation after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "machine-readable output (api.ExplainResponse, as the server emits)")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	var c cqapprox.Class
	if *className != "" {
		if c, err = classFromName(*className); err != nil {
			return err
		}
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()
	var p *cqapprox.PreparedQuery
	if c != nil {
		p, err = engine.Prepare(ctx, q, c)
	} else {
		p, err = engine.PrepareExact(ctx, q)
	}
	if err != nil {
		return err
	}
	ex := p.Explain()
	if *jsonOut {
		key, err := engine.CacheKey(q, c, engine.Options())
		if err != nil {
			return err
		}
		return emitJSON(api.ExplainResponse{Key: api.EncodeKey(key), Explain: ex, Text: ex.Text()})
	}
	fmt.Printf("query: %v\n", q)
	if m := ex.Minimized; m != "" && m != ex.Query {
		fmt.Printf("minimized: %s\n", m)
	}
	fmt.Print(ex.Text())
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	cand := fs.String("cand", "", "candidate approximation")
	className := fs.String("class", "TW1", "target class")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	cd, err := cqapprox.Parse(*cand)
	if err != nil {
		return err
	}
	c, err := classFromName(*className)
	if err != nil {
		return err
	}
	ok, err := cqapprox.IsApproximation(q, cd, c, cqapprox.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("%v is a %s-approximation of %v: %v\n", cd, c.Name(), q, ok)
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	dbPath := fs.String("db", "", "database file (one fact per line)")
	dbRegister := fs.String("db-register", "", "register the database under this name and evaluate against the registered snapshot (persistent shared indexes, as cqapproxd's eval-by-name does)")
	className := fs.String("class", "", "evaluate the query's C-approximation instead (e.g. TW1, AC)")
	stream := fs.Bool("stream", false, "print answers as they are found (discovery order)")
	parallel := fs.Int("parallel", 1, "evaluation worker budget (morsel-driven parallel eval; <= 1 serial)")
	order := fs.String("order", "", "comma-separated head variables to rank answers by, most significant first (remaining head positions complete the key)")
	desc := fs.Bool("desc", false, "reverse the answer order (with or without -order)")
	limit := fs.Int("limit", 0, "print only the first N answers (ordered with -order/-desc, any-N otherwise; 0 = all)")
	trace := fs.Bool("trace", false, "print the execution trace (ANALYZE) of the evaluation")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "machine-readable output (api.EvalResponse; with -stream, NDJSON answer lines)")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	db, err := LoadDB(*dbPath)
	if err != nil {
		return err
	}
	if *trace && *stream {
		return fmt.Errorf("-trace is incompatible with -stream (the trace is complete only after the last answer)")
	}
	if *stream && q.IsBoolean() {
		return fmt.Errorf("-stream requires a non-Boolean query (a Boolean query has a single true/false answer)")
	}
	ranked := *order != "" || *desc || *limit != 0
	if ranked && *trace {
		return fmt.Errorf("-trace is incompatible with -order, -desc and -limit")
	}
	if ranked && q.IsBoolean() {
		return fmt.Errorf("-order, -desc and -limit require a non-Boolean query")
	}
	if *limit < 0 {
		return fmt.Errorf("-limit must be nonnegative (0 = all answers)")
	}
	var evalOpts []cqapprox.EvalOption
	if *order != "" {
		names := strings.Split(*order, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		evalOpts = append(evalOpts, cqapprox.WithOrder(names...))
	}
	if *desc {
		evalOpts = append(evalOpts, cqapprox.WithDescending())
	}
	if *limit > 0 {
		evalOpts = append(evalOpts, cqapprox.WithLimit(*limit))
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	// -class swaps the query for its prepared C-approximation.
	var p *cqapprox.PreparedQuery
	if *className != "" {
		c, err := classFromName(*className)
		if err != nil {
			return err
		}
		if p, err = engine.Prepare(ctx, q, c); err != nil {
			return err
		}
		if !*jsonOut { // the comment line would corrupt machine-readable output
			fmt.Printf("# evaluating %s-approximation %v (plan: %s)\n", c.Name(), p.Approx(), p.PlanMode())
		}
	} else if p, err = engine.PrepareExact(ctx, q); err != nil {
		return err
	}
	if *parallel > 1 {
		evalOpts = append(evalOpts, cqapprox.WithEvalParallelism(*parallel))
	}
	// -db-register snapshots the file into the engine's registry and
	// evaluates through the snapshot's persistent indexes — the same
	// path cqapproxd's eval-by-name requests take.
	var bound *cqapprox.BoundQuery
	if *dbRegister != "" {
		d, _, err := engine.RegisterDB(*dbRegister, db)
		if err != nil {
			return err
		}
		bound = p.Bind(d)
	}
	if *stream {
		var (
			seq  iter.Seq[cqapprox.Tuple]
			errf func() error
		)
		if bound != nil {
			seq, errf = bound.AnswersErr(ctx, evalOpts...)
		} else {
			seq, errf = p.AnswersErr(ctx, db, evalOpts...)
		}
		n := 0
		for t := range seq {
			if *jsonOut {
				if err := emitJSON([]int(t)); err != nil {
					return err
				}
			} else {
				fmt.Println(t)
			}
			n++
		}
		if err := errf(); err != nil {
			return fmt.Errorf("stream interrupted after %d answers: %w", n, err)
		}
		if !*jsonOut {
			fmt.Printf("(%d answers)\n", n)
		}
		return nil
	}
	if q.IsBoolean() {
		var (
			ok bool
			tr *cqapprox.ExecTrace
		)
		switch {
		case *trace && bound != nil:
			ok, tr, err = bound.EvalBoolTrace(ctx, evalOpts...)
		case *trace:
			ok, tr, err = p.EvalBoolTrace(ctx, db, evalOpts...)
		case bound != nil:
			ok, err = bound.EvalBool(ctx, evalOpts...)
		default:
			ok, err = p.EvalBool(ctx, db, evalOpts...)
		}
		if err != nil {
			return err
		}
		if *jsonOut {
			return emitJSON(api.EvalBoolResponse{Result: ok, Trace: tr})
		}
		fmt.Println(ok)
		if tr != nil {
			fmt.Print(tr.Text())
		}
		return nil
	}
	var (
		ans cqapprox.Answers
		tr  *cqapprox.ExecTrace
	)
	switch {
	case *trace && bound != nil:
		ans, tr, err = bound.EvalTrace(ctx, evalOpts...)
	case *trace:
		ans, tr, err = p.EvalTrace(ctx, db, evalOpts...)
	case bound != nil:
		ans, err = bound.Eval(ctx, evalOpts...)
	default:
		ans, err = p.Eval(ctx, db, evalOpts...)
	}
	if err != nil {
		return err
	}
	if tr == nil {
		return printAnswers(q, ans, *jsonOut)
	}
	if *jsonOut {
		return emitJSON(api.EvalResponse{Answers: api.FromAnswers(ans), Count: len(ans), Trace: tr})
	}
	for _, t := range ans {
		fmt.Println(t)
	}
	fmt.Printf("(%d answers)\n", len(ans))
	fmt.Print(tr.Text())
	return nil
}

// cmdCount counts answers through the prepared plan without
// materializing them: the exact multiplicity DP where the head
// structure allows, or — with -estimate — the sampling estimator
// under -epsilon/-delta/-seed. The database, -class, -db-register,
// -parallel and -timeout flags behave exactly as in eval.
func cmdCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	src := fs.String("q", "", "query in rule notation")
	dbPath := fs.String("db", "", "database file (one fact per line)")
	dbRegister := fs.String("db-register", "", "register the database under this name and count against the registered snapshot")
	className := fs.String("class", "", "count the query's C-approximation instead (e.g. TW1, AC)")
	estimate := fs.Bool("estimate", false, "run the sampling estimator instead of exact counting")
	epsilon := fs.Float64("epsilon", 0, "estimator relative error target in (0,1] (0 = library default)")
	delta := fs.Float64("delta", 0, "estimator failure probability in (0,1) (0 = library default)")
	seed := fs.Int64("seed", 0, "estimator seed for reproducible runs")
	maxSamples := fs.Int("max-samples", 0, "estimator sample budget cap (0 = library default)")
	trace := fs.Bool("trace", false, "print the execution trace (ANALYZE) of the counting pass")
	parallel := fs.Int("parallel", 1, "worker budget for the counting passes (<= 1 serial)")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "machine-readable output (api.CountResponse, as the server emits)")
	fs.Parse(args)
	q, err := cqapprox.Parse(*src)
	if err != nil {
		return err
	}
	db, err := LoadDB(*dbPath)
	if err != nil {
		return err
	}
	// Only flags the user actually set become options, so the library
	// defaults (and the default seed) apply otherwise — same convention
	// as the server's omitted-knob handling.
	var opts []cqapprox.CountOption
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "epsilon":
			opts = append(opts, cqapprox.WithEpsilon(*epsilon))
		case "delta":
			opts = append(opts, cqapprox.WithDelta(*delta))
		case "seed":
			opts = append(opts, cqapprox.WithSeed(*seed))
		case "max-samples":
			opts = append(opts, cqapprox.WithMaxSamples(*maxSamples))
		}
	})
	if len(opts) > 0 && !*estimate {
		return fmt.Errorf("-epsilon, -delta, -seed and -max-samples require -estimate")
	}
	if *trace {
		opts = append(opts, cqapprox.WithTrace())
	}
	if *parallel > 1 {
		opts = append(opts, cqapprox.WithEvalParallelism(*parallel))
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()

	var p *cqapprox.PreparedQuery
	if *className != "" {
		c, err := classFromName(*className)
		if err != nil {
			return err
		}
		if p, err = engine.Prepare(ctx, q, c); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("# counting %s-approximation %v (plan: %s)\n", c.Name(), p.Approx(), p.PlanMode())
		}
	} else if p, err = engine.PrepareExact(ctx, q); err != nil {
		return err
	}

	var res *cqapprox.CountResult
	if *dbRegister != "" {
		d, _, err := engine.RegisterDB(*dbRegister, db)
		if err != nil {
			return err
		}
		b := p.Bind(d)
		if *estimate {
			res, err = b.EstimateCount(ctx, opts...)
		} else {
			res, err = b.Count(ctx, opts...)
		}
		if err != nil {
			return err
		}
	} else {
		if *estimate {
			res, err = p.EstimateCount(ctx, db, opts...)
		} else {
			res, err = p.Count(ctx, db, opts...)
		}
		if err != nil {
			return err
		}
	}
	if *jsonOut {
		return emitJSON(api.CountResponse{
			Count:     res.Count,
			Estimate:  res.Estimate,
			Estimated: res.Estimated,
			Mode:      res.Mode,
			Samples:   res.Samples,
			Batches:   res.Batches,
			Epsilon:   res.Epsilon,
			Delta:     res.Delta,
			Trace:     res.Trace,
		})
	}
	if res.Estimated {
		fmt.Printf("%.1f (estimated; %d samples in %d batches, ε=%g δ=%g)\n",
			res.Estimate, res.Samples, res.Batches, res.Epsilon, res.Delta)
	} else {
		fmt.Printf("%d (%s)\n", res.Count, res.Mode)
	}
	if res.Trace != nil {
		fmt.Print(res.Trace.Text())
	}
	return nil
}

// cmdSubscribe watches a live query on a running cqapproxd — the only
// CLI command that talks to a server rather than evaluating in-process,
// because a subscription only means something against a registered
// database that other clients keep updating. It prints the init frame
// (the full answer set) and then one diff per server-side update until
// interrupted, the server ends the stream, or -frames are printed.
func cmdSubscribe(args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "cqapproxd base URL")
	src := fs.String("q", "", "query in rule notation")
	className := fs.String("class", "", "subscribe to the query's C-approximation instead (e.g. TW1, AC)")
	dbName := fs.String("db", "", "registered database name on the server (POST /v1/db)")
	frames := fs.Int("frames", 0, "exit after this many frames, counting the init frame (0 = until interrupted)")
	timeout := fs.Duration("timeout", 0, "deadline for the initial evaluation (0 = server default; the stream itself has none)")
	jsonOut := fs.Bool("json", false, "machine-readable output (raw api.DiffFrame NDJSON lines)")
	fs.Parse(args)
	if *dbName == "" {
		return fmt.Errorf("subscribe requires -db (a name registered on the server via POST /v1/db)")
	}
	req := api.SubscribeRequest{
		Query: *src, DB: *dbName,
		TimeoutMS: timeout.Milliseconds(),
	}
	if *className != "" {
		req.Class = *className
	} else {
		req.Exact = true
	}
	c := client.New(*addr)
	seq, errf := c.Subscribe(context.Background(), req)
	n := 0
	for f := range seq {
		if *jsonOut {
			if err := emitJSON(f); err != nil {
				return err
			}
		} else {
			printFrame(f)
		}
		n++
		if *frames > 0 && n >= *frames {
			break
		}
	}
	if err := errf(); err != nil {
		return fmt.Errorf("subscription ended after %d frames: %w", n, err)
	}
	return nil
}

// printFrame renders one diff frame for humans: a header line saying
// what kind of frame it is, then +tuple/-tuple lines.
func printFrame(f api.DiffFrame) {
	switch {
	case f.Init:
		fmt.Printf("# v%d init (%d answers)\n", f.Version, len(f.Added))
	case f.Resync:
		fmt.Printf("# v%d resync (%d answers; updates were dropped)\n", f.Version, len(f.Added))
	case f.Fallback:
		fmt.Printf("# v%d +%d -%d (fallback: %s)\n", f.Version, len(f.Added), len(f.Removed), f.Reason)
	default:
		fmt.Printf("# v%d +%d -%d\n", f.Version, len(f.Added), len(f.Removed))
	}
	for _, t := range f.Removed {
		fmt.Printf("- %v\n", t)
	}
	for _, t := range f.Added {
		fmt.Printf("+ %v\n", t)
	}
}

// printAnswers renders an answer set the way eval always has: one
// tuple per line plus a count, or a bare boolean for Boolean queries.
// jsonOut instead emits the server's wire shapes (api.EvalResponse /
// api.EvalBoolResponse).
func printAnswers(q *cqapprox.Query, ans cqapprox.Answers, jsonOut bool) error {
	if q.IsBoolean() {
		if jsonOut {
			return emitJSON(api.EvalBoolResponse{Result: len(ans) > 0})
		}
		fmt.Println(len(ans) > 0)
		return nil
	}
	if jsonOut {
		return emitJSON(api.EvalResponse{Answers: api.FromAnswers(ans), Count: len(ans)})
	}
	for _, t := range ans {
		fmt.Println(t)
	}
	fmt.Printf("(%d answers)\n", len(ans))
	return nil
}

// LoadDB reads a database file: one fact per line, relation name
// followed by integer arguments, '#' comments allowed.
func LoadDB(path string) (*cqapprox.Structure, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := cqapprox.NewStructure()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: want relation plus arguments", path, lineNo)
		}
		args := make([]int, len(fields)-1)
		for i, fstr := range fields[1:] {
			v, err := strconv.Atoi(fstr)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad argument %q", path, lineNo, fstr)
			}
			args[i] = v
		}
		db.Add(fields[0], args...)
	}
	return db, sc.Err()
}
