package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"cqapprox"
)

// answerPrint is an order-independent fingerprint of an answer set:
// its size and the wrapping sum of a mixing hash of every tuple. Two
// answer sets with equal prints are equal up to a 2^-64 collision.
type answerPrint struct {
	n   int
	sum uint64
}

func tupleHash(t []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15) + uint64(len(t))
	for _, v := range t {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
	}
	return h
}

func printOf[R ~[]int](rows []R) answerPrint {
	p := answerPrint{n: len(rows)}
	for _, r := range rows {
		p.sum += tupleHash(r)
	}
	return p
}

// boolPrint is the print of a Boolean answer.
func boolPrint(b bool) answerPrint {
	if b {
		return printOf([][]int{{}})
	}
	return answerPrint{}
}

// countPrint is the print of an exact count.
func countPrint(n uint64) answerPrint { return answerPrint{n: int(n)} }

// allOps lists every op index, for a check that cannot run at all.
func allOps(n int) []int {
	bad := make([]int, n)
	for i := range bad {
		bad[i] = i
	}
	return bad
}

// refCache computes each reference answer set once per run. Keys must
// identify both the query and the database contents.
type refCache struct {
	m map[string]answerPrint
}

func newRefCache() *refCache { return &refCache{m: map[string]answerPrint{}} }

// naive is the print of cqapprox.NaiveEval(q, db): backtracking
// homomorphism search, a different engine than the Yannakakis executor
// under test. It is used where the database is small.
func (c *refCache) naive(key string, q *cqapprox.Query, db *cqapprox.Structure) answerPrint {
	if p, ok := c.m[key]; ok {
		return p
	}
	p := printOf(cqapprox.NaiveEval(q, db))
	c.m[key] = p
	return p
}

// joined is the print of refJoin's answer set, for databases where
// NaiveEval takes minutes (it needs over 20 s per projecting query at
// N=3000).
func (c *refCache) joined(key string, q *cqapprox.Query, db refDB) answerPrint {
	if p, ok := c.m[key]; ok {
		return p
	}
	p := joinPrint(q, db)
	c.m[key] = p
	return p
}

// joinPrint is the print of refJoin's answer set of q over db.
func joinPrint(q *cqapprox.Query, db refDB) answerPrint {
	var p answerPrint
	if len(q.Head) == 0 {
		refJoin(q, db, func([]int) bool { p = boolPrint(true); return false })
	} else {
		full := len(q.Head) == len(queryVars(q))
		seen := map[string]struct{}{}
		var buf []byte
		refJoin(q, db, func(h []int) bool {
			if !full { // a full head makes every homomorphism a distinct answer
				buf = buf[:0]
				for _, v := range h {
					buf = binary.AppendVarint(buf, int64(v))
				}
				if _, dup := seen[string(buf)]; dup {
					return true
				}
				seen[string(buf)] = struct{}{}
			}
			p.n++
			p.sum += tupleHash(h)
			return true
		})
	}
	return p
}

func queryVars(q *cqapprox.Query) map[string]bool {
	vs := map[string]bool{}
	for _, a := range q.Atoms {
		for _, v := range a.Args {
			vs[v] = true
		}
	}
	return vs
}

// refDB is the reference's own copy of a database: per relation, its
// tuples and, per argument position, its tuples by the value there. It
// is built from a *cqapprox.Structure's tuples and shares no code with
// the engine's storage.
type refDB map[string]*refRel

type refRel struct {
	all   [][]int
	byPos []map[int][][]int
}

func newRefDB(s *cqapprox.Structure) refDB {
	db := refDB{}
	for _, rel := range s.Relations() {
		for _, t := range s.Tuples(rel) {
			db.add(rel, t...)
		}
	}
	return db
}

// add adds the tuple t to rel, which must not hold it yet.
func (db refDB) add(rel string, t ...int) {
	r := db[rel]
	if r == nil {
		r = &refRel{byPos: make([]map[int][][]int, len(t))}
		for pos := range r.byPos {
			r.byPos[pos] = map[int][][]int{}
		}
		db[rel] = r
	}
	t = slices.Clone(t)
	r.all = append(r.all, t)
	for pos, v := range t {
		r.byPos[pos][v] = append(r.byPos[pos][v], t)
	}
}

// remove removes the tuple t from rel, if present.
func (db refDB) remove(rel string, t ...int) {
	r := db[rel]
	if r == nil {
		return
	}
	drop := func(ts [][]int) [][]int {
		if k := slices.IndexFunc(ts, func(u []int) bool { return slices.Equal(u, t) }); k >= 0 {
			ts[k] = ts[len(ts)-1]
			return ts[:len(ts)-1]
		}
		return ts
	}
	r.all = drop(r.all)
	for pos, v := range t {
		r.byPos[pos][v] = drop(r.byPos[pos][v])
	}
}

// refJoin enumerates the homomorphisms of q into db by backtracking
// over the atoms, probing db's per-position index, and calls fn with
// each homomorphism's head projection (duplicates included) until fn
// returns false.
func refJoin(q *cqapprox.Query, db refDB, fn func(head []int) bool) {
	vars := map[string]int{}
	id := func(v string) int {
		if i, ok := vars[v]; ok {
			return i
		}
		vars[v] = len(vars)
		return len(vars) - 1
	}
	// Order atoms so each one after the first shares a variable with
	// an earlier one whenever the query allows.
	var atoms [][]int
	var rels []string
	bound := map[string]bool{}
	left := slices.Clone(q.Atoms)
	for len(left) > 0 {
		best := 0
		for k, a := range left {
			if slices.ContainsFunc(a.Args, func(v string) bool { return bound[v] }) {
				best = k
				break
			}
		}
		a := left[best]
		left = slices.Delete(left, best, best+1)
		args := make([]int, len(a.Args))
		for k, v := range a.Args {
			args[k] = id(v)
			bound[v] = true
		}
		atoms = append(atoms, args)
		rels = append(rels, a.Rel)
	}
	head := make([]int, len(q.Head))
	for k, v := range q.Head {
		head[k] = id(v)
	}
	val := make([]int, len(vars))
	set := make([]bool, len(vars))
	out := make([]int, len(head))
	fresh := make([][]int, len(atoms)) // per atom, the variables it bound
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(atoms) {
			for i, v := range head {
				out[i] = val[v]
			}
			return fn(out)
		}
		args := atoms[k]
		r := db[rels[k]]
		if r == nil {
			return true
		}
		cands := r.all
		for pos, v := range args { // probe the shortest bound position
			if set[v] && pos < len(r.byPos) {
				if c := r.byPos[pos][val[v]]; len(c) < len(cands) {
					cands = c
				}
			}
		}
		for _, t := range cands {
			fresh[k] = fresh[k][:0]
			ok := len(t) == len(args)
			for pos := 0; ok && pos < len(args); pos++ {
				v := args[pos]
				switch {
				case !set[v]:
					set[v], val[v] = true, t[pos]
					fresh[k] = append(fresh[k], v)
				case val[v] != t[pos]:
					ok = false
				}
			}
			if ok && !rec(k+1) {
				return false
			}
			for _, v := range fresh[k] {
				set[v] = false
			}
		}
		return true
	}
	rec(0)
}

// estimateOK accepts an estimate within its requested ε of the exact
// count.
func estimateOK(est float64, exact uint64, eps float64) bool {
	return math.Abs(est-float64(exact)) <= eps*float64(exact)
}

// queryText renders q in rule syntax under the head name "Q" (some
// workload helpers name queries "C4(x)", which does not re-parse).
func queryText(q *cqapprox.Query) string {
	c := q.Clone()
	c.Name = "Q"
	return c.String()
}

// completeLayers checks ms against the per_layer list of
// BENCHMARK.json, read from the working directory (the repository
// root), and adds a 0 for every layer metric the workload does not
// measure (README.md lists which workload owns which metric).
func completeLayers(ms []metric) ([]metric, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	units := map[string]string{}
	for _, l := range spec.PerLayer {
		units[l.Name] = l.Unit
	}
	have := map[string]bool{}
	for _, m := range ms {
		if units[m.Name] != m.Unit {
			return nil, fmt.Errorf("layer metric %s with unit %q is not in BENCHMARK.json as such", m.Name, m.Unit)
		}
		have[m.Name] = true
	}
	for _, l := range spec.PerLayer {
		if !have[l.Name] {
			ms = append(ms, metric{l.Name, 0, l.Unit})
		}
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms, nil
}
