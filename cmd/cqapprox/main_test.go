package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cqapprox/api"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns what it printed. The pipe is drained concurrently so large
// outputs cannot deadlock the writer.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string, 1)
	go func() {
		buf := new(strings.Builder)
		io.Copy(buf, r)
		outc <- buf.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-outc
	if ferr != nil {
		t.Fatalf("%v (output %q)", ferr, out)
	}
	return out
}

func TestClassFromName(t *testing.T) {
	for _, name := range []string{"TW1", "tw2", "TW3", "AC", "ac", "HTW1", "HTW2", "GHTW1", "GHTW2"} {
		if _, err := classFromName(name); err != nil {
			t.Errorf("classFromName(%q): %v", name, err)
		}
	}
	if _, err := classFromName("TW9"); err == nil {
		t.Error("unknown class accepted")
	}
	c, _ := classFromName("tw1")
	if c.Name() != "TW(1)" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestLoadDB(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.txt")
	content := "# a comment\nE 1 2\nE 2 3\n\nR 1 2 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Has("E", 1, 2) || !db.Has("E", 2, 3) || !db.Has("R", 1, 2, 3) {
		t.Fatalf("db = %v", db)
	}
	if db.NumFacts() != 3 {
		t.Fatalf("NumFacts = %d", db.NumFacts())
	}
}

// -json emits the server's wire shapes: approx an api.PrepareResponse,
// eval an api.EvalResponse / api.EvalBoolResponse, eval -stream NDJSON
// tuples — decodable with the same api types a client of cqapproxd
// uses.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "graph.txt")
	if err := os.WriteFile(dbPath, []byte("E 1 2\nE 2 3\nE 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error {
		return cmdApprox([]string{"-q", "Q(x) :- E(x,y), E(y,z), E(z,x)", "-class", "TW1", "-json"})
	})
	var prep api.PrepareResponse
	if err := json.Unmarshal([]byte(out), &prep); err != nil {
		t.Fatalf("approx -json output undecodable: %v\n%s", err, out)
	}
	if prep.Key == "" || prep.Class != "TW(1)" || prep.Plan != "yannakakis" ||
		prep.Approximation != "Q_approx(x0) :- E(x0,x1), E(x1,x0), E(x1,x1)" {
		t.Fatalf("approx -json = %+v", prep)
	}

	out = captureStdout(t, func() error {
		return cmdEval([]string{"-q", "Q(x,z) :- E(x,y), E(y,z)", "-db", dbPath, "-json"})
	})
	var ev api.EvalResponse
	if err := json.Unmarshal([]byte(out), &ev); err != nil {
		t.Fatalf("eval -json output undecodable: %v\n%s", err, out)
	}
	if ev.Count != 3 || len(ev.Answers) != 3 {
		t.Fatalf("eval -json = %+v", ev)
	}

	out = captureStdout(t, func() error {
		return cmdEval([]string{"-q", "Q() :- E(x,x)", "-db", dbPath, "-json"})
	})
	var bv api.EvalBoolResponse
	if err := json.Unmarshal([]byte(out), &bv); err != nil || bv.Result {
		t.Fatalf("boolean eval -json = %q (%v)", out, err)
	}

	out = captureStdout(t, func() error {
		return cmdEval([]string{"-q", "Q(x,z) :- E(x,y), E(y,z)", "-db", dbPath, "-stream", "-json"})
	})
	lines := strings.Fields(out)
	if len(lines) != 3 {
		t.Fatalf("stream -json: want 3 NDJSON lines, got %q", out)
	}
	for _, line := range lines {
		var tup []int
		if err := json.Unmarshal([]byte(line), &tup); err != nil || len(tup) != 2 {
			t.Fatalf("stream -json line %q: %v", line, err)
		}
	}

	out = captureStdout(t, func() error {
		return cmdClassify([]string{"-q", "Q() :- E(x,y), E(y,z), E(z,x)", "-json"})
	})
	var cl api.ClassifyResponse
	if err := json.Unmarshal([]byte(out), &cl); err != nil {
		t.Fatalf("classify -json output undecodable: %v\n%s", err, out)
	}
	if cl.Kind != "non-bipartite" || cl.LoopFreeTW[1] || !cl.LoopFreeTW[2] {
		t.Fatalf("classify -json = %+v", cl)
	}
}

// The count subcommand in both modes, against plain and registered
// databases, with -json emitting the server's api.CountResponse shape.
func TestCountCommand(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "path.txt")
	if err := os.WriteFile(dbPath, []byte("E 1 2\nE 2 3\nE 3 4\nE 4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error {
		return cmdCount([]string{"-q", "Q(x,y,z) :- E(x,y), E(y,z)", "-db", dbPath, "-json"})
	})
	var res api.CountResponse
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("count -json output undecodable: %v\n%s", err, out)
	}
	if res.Count != 3 || res.Estimated || res.Mode != "exact-dp" {
		t.Fatalf("count -json = %+v", res)
	}

	out = captureStdout(t, func() error {
		return cmdCount([]string{"-q", "Q(x,y,z) :- E(x,y), E(y,z)", "-db", dbPath,
			"-db-register", "path", "-parallel", "2"})
	})
	if !strings.HasPrefix(out, "3 (exact-dp)") {
		t.Fatalf("registered count output = %q", out)
	}

	out = captureStdout(t, func() error {
		return cmdCount([]string{"-q", "Q(x,z) :- E(x,y), E(y,z)", "-db", dbPath,
			"-estimate", "-epsilon", "0.25", "-seed", "7", "-json"})
	})
	var est api.CountResponse
	if err := json.Unmarshal([]byte(out), &est); err != nil {
		t.Fatalf("count -estimate -json output undecodable: %v\n%s", err, out)
	}
	if !est.Estimated || est.Mode != "estimate" || est.Samples == 0 {
		t.Fatalf("count -estimate -json = %+v", est)
	}
	if rel := est.Estimate/3 - 1; rel > 0.25 || rel < -0.25 {
		t.Fatalf("estimate %v for true count 3 misses ε=0.25", est.Estimate)
	}

	if err := cmdCount([]string{"-q", "Q(x) :- E(x,y)", "-db", dbPath, "-epsilon", "0.1"}); err == nil {
		t.Fatal("estimator knobs without -estimate accepted")
	}
}

func TestLoadDBErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("E one two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDB(bad); err == nil {
		t.Error("non-integer arguments accepted")
	}
	short := filepath.Join(dir, "short.txt")
	if err := os.WriteFile(short, []byte("E\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDB(short); err == nil {
		t.Error("relation without arguments accepted")
	}
	if _, err := LoadDB(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

// The exact bytes of eval -json and eval -stream -json: the server's
// wire encoding, trailing newlines included.
func TestEvalJSONGolden(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "graph.txt")
	if err := os.WriteFile(dbPath, []byte("E 1 2\nE 2 -3\nE -3 9223372036854775807\nE 0 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-q", "Q(x,z) :- E(x,y), E(y,z)"}, "{\"answers\":[[0,0],[1,-3],[2,9223372036854775807]],\"count\":3}\n"},
		{[]string{"-q", "Q(x,z) :- E(x,y), E(y,z)", "-stream"}, "[1,-3]\n[2,9223372036854775807]\n[0,0]\n"},
		{[]string{"-q", "Q(x) :- E(x,x), E(x,y), E(y,x)", "-class", "TW1"}, "{\"answers\":[[0]],\"count\":1}\n"},
		{[]string{"-q", "Q(x) :- F(x,y)"}, "{\"answers\":[],\"count\":0}\n"},
	} {
		args := append([]string{"-db", dbPath, "-json"}, tc.args...)
		if got := captureStdout(t, func() error { return cmdEval(args) }); got != tc.want {
			t.Errorf("eval %v:\n got %q\nwant %q", tc.args, got, tc.want)
		}
	}
}

// splitTrace splits eval -trace output into its answer lines (the
// "(n answers)" summary included) and the names of the trace's phases,
// dropping the timings, which differ between runs.
func splitTrace(out string) (answers string, phases []string) {
	head, trace, _ := strings.Cut(out, "trace: ")
	for _, line := range strings.Split(trace, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "phase" {
			phases = append(phases, f[1])
		}
	}
	return head, phases
}

// eval and count read an inline file and a -db-register snapshot of it
// through one path: the same query and file print byte-identical
// output either way, and a traced eval the same answer lines and
// phase names.
func TestInlineMatchesRegistered(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(dbPath, []byte("E 1 2\nE 2 3\nE 3 4\nE 4 5\nE 5 2\nE 6 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const path = "Q(x,z) :- E(x,y), E(y,z)"
	for i, tc := range []struct {
		cmd  func([]string) error
		args []string
	}{
		{cmdEval, []string{"-q", path}},
		{cmdEval, []string{"-q", "Q() :- E(x,y), E(y,z), E(z,x)"}},
		{cmdEval, []string{"-q", path, "-json"}},
		{cmdEval, []string{"-q", path, "-order", "z,x", "-desc", "-limit", "3"}},
		{cmdEval, []string{"-q", path, "-trace"}},
		{cmdEval, []string{"-q", "Q() :- E(x,x)", "-trace"}},
		{cmdCount, []string{"-q", path}},
		{cmdCount, []string{"-q", path, "-estimate", "-seed", "7"}},
	} {
		args := append([]string{"-db", dbPath}, tc.args...)
		inline := captureStdout(t, func() error { return tc.cmd(args) })
		registered := captureStdout(t, func() error {
			return tc.cmd(append(args, "-db-register", fmt.Sprint("g", i)))
		})
		if slices.Contains(tc.args, "-trace") {
			ia, ip := splitTrace(inline)
			ra, rp := splitTrace(registered)
			if ia != ra || !slices.Equal(ip, rp) || len(ip) == 0 {
				t.Errorf("%v: inline %q %v, registered %q %v", tc.args, ia, ip, ra, rp)
			}
			continue
		}
		if inline != registered {
			t.Errorf("%v: inline %q, registered %q", tc.args, inline, registered)
		}
	}
}

// -trace combines with -order, -desc and -limit: the traced ranked eval
// prints exactly the untraced answers, and its trace the path the key
// took — the pass rooted at the first visit plus the ordered search on
// a connex key, the plain evaluation's phases on the fallback of the
// projected path query.
func TestEvalTraceRanked(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(dbPath, []byte("E 1 2\nE 2 1\nE 2 2\nE 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query, order string
		phases       []string
	}{
		{"Q(x,y,z) :- E(x,y), E(y,z)", "z,y,x", []string{"semijoin-down", "ranked"}},
		{"Q(x,z) :- E(x,y), E(y,z)", "z,x", []string{"semijoin-down", "join", "project"}},
	} {
		args := []string{"-q", tc.query, "-db", dbPath, "-order", tc.order, "-desc", "-limit", "2"}
		plain := captureStdout(t, func() error { return cmdEval(args) })
		answers, phases := splitTrace(captureStdout(t, func() error { return cmdEval(append(args, "-trace")) }))
		if answers != plain || !strings.HasSuffix(plain, "(2 answers)\n") {
			t.Errorf("%s: traced answers %q, untraced %q", tc.query, answers, plain)
		}
		if !slices.Equal(phases, tc.phases) {
			t.Errorf("%s: phases %v, want %v", tc.query, phases, tc.phases)
		}
	}
}
