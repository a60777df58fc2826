package core

import (
	"context"
	"sort"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
)

// The reference enumeration: the exhaustive candidate sweep the pruned
// search in search.go replaced, kept as the differential oracle. It
// visits every partition of T_Q's domain in restricted-growth order,
// dedups candidates on their rendering, extends every out-of-class
// quotient, and runs front maintenance on uncompiled structures
// keeping the first of two equivalent candidates.

// refApproxFront is approxFront over the reference enumeration.
func refApproxFront(q *cq.Query, c Class, opt Options) ([]hom.Pointed, error) {
	opt = opt.WithDefaults()
	if tb := q.Tableau(); c.Contains(tb.S) {
		coreS, retract := hom.Core(tb.S, tb.Dist)
		return []hom.Pointed{{S: coreS, Dist: mapDist(tb.Dist, retract)}}, nil
	}
	var front []hom.Pointed
	err := refForEachCandidate(nil, q, c, opt, func(p hom.Pointed) bool {
		coreS, retract := hom.Core(p.S, p.Dist)
		cp := hom.Pointed{S: coreS, Dist: mapDist(p.Dist, retract)}
		for _, y := range front {
			if hom.Maps(y, cp) {
				return true
			}
		}
		kept := front[:0]
		for _, y := range front {
			if !(hom.Maps(cp, y) && !hom.Maps(y, cp)) {
				kept = append(kept, y)
			}
		}
		front = append(kept, cp)
		return true
	})
	if err != nil {
		return nil, err
	}
	sortFront(front)
	return front, nil
}

// refPartitions enumerates all set partitions of elems in
// restricted-growth order, each as element → block representative.
func refPartitions(elems []int, fn func(map[int]int) bool) bool {
	n := len(elems)
	if n == 0 {
		return fn(map[int]int{})
	}
	rgs := make([]int, n)
	var rec func(i, maxBlock int) bool
	rec = func(i, maxBlock int) bool {
		if i == n {
			rep := make([]int, maxBlock+1)
			for b := range rep {
				rep[b] = -1
			}
			p := make(map[int]int, n)
			for j, e := range elems {
				b := rgs[j]
				if rep[b] == -1 {
					rep[b] = e
				}
				p[e] = rep[b]
			}
			return fn(p)
		}
		for b := 0; b <= maxBlock+1; b++ {
			rgs[i] = b
			nb := maxBlock
			if b > maxBlock {
				nb = b
			}
			if !rec(i+1, nb) {
				return false
			}
		}
		return true
	}
	rgs[0] = 0
	return rec(1, 0)
}

func refForEachCandidate(ctx context.Context, q *cq.Query, c Class, opt Options, fn func(hom.Pointed) bool) error {
	tb := q.Tableau()
	dom := tb.S.Domain()
	seen := map[string]bool{}
	var canceled error
	refPartitions(dom, func(p map[int]int) bool {
		if err := cqerr.Check(ctx); err != nil {
			canceled = err
			return false
		}
		img := tb.S.Map(func(e int) int { return p[e] })
		dist := make([]int, len(tb.Dist))
		for i, d := range tb.Dist {
			if r, ok := p[d]; ok {
				dist[i] = r
			} else {
				dist[i] = d
			}
		}
		key := img.String() + "|" + relstr.Tuple(dist).Key()
		inClass := false
		if !seen[key] {
			seen[key] = true
			if c.Contains(img) {
				inClass = true
				if !fn(hom.Pointed{S: img, Dist: dist}) {
					return false
				}
			}
		}
		if !c.GraphBased() && !inClass && opt.MaxExtraAtoms > 0 {
			if !refForEachExtension(img, dist, q, c, opt, seen, fn) {
				return false
			}
		}
		return true
	})
	return canceled
}

func refForEachExtension(img *relstr.Structure, dist []int, q *cq.Query, c Class, opt Options, seen map[string]bool, fn func(hom.Pointed) bool) bool {
	schema := q.Schema()
	var rels []string
	for r := range schema {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	domain := img.Domain()
	freshBase := 0
	for _, e := range domain {
		if e >= freshBase {
			freshBase = e + 1
		}
	}
	type extra struct {
		rel  string
		args []int
	}
	var pool []extra
	for _, r := range rels {
		arity := schema[r]
		vals := make([]int, arity)
		var gen func(pos, freshUsed int)
		gen = func(pos, freshUsed int) {
			if pos == arity {
				args := append([]int{}, vals...)
				if img.Has(r, args...) {
					return
				}
				touches := false
				for _, a := range args {
					if a < freshBase {
						touches = true
						break
					}
				}
				if touches {
					pool = append(pool, extra{rel: r, args: args})
				}
				return
			}
			for _, e := range domain {
				vals[pos] = e
				gen(pos+1, freshUsed)
			}
			for f := 0; f <= freshUsed && f < opt.FreshVars; f++ {
				vals[pos] = freshBase + f
				nu := freshUsed
				if f == freshUsed {
					nu++
				}
				gen(pos+1, nu)
			}
		}
		gen(0, 0)
	}
	var chosen []extra
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(chosen) > 0 {
			ext := img.Clone()
			offset := 0
			for _, ex := range chosen {
				args := make([]int, len(ex.args))
				for i, a := range ex.args {
					if a >= freshBase {
						args[i] = a + offset
					} else {
						args[i] = a
					}
				}
				ext.Add(ex.rel, args...)
				offset += opt.FreshVars
			}
			key := ext.String() + "|" + relstr.Tuple(dist).Key()
			if !seen[key] {
				seen[key] = true
				if c.Contains(ext) {
					if !fn(hom.Pointed{S: ext, Dist: dist}) {
						return false
					}
				}
			}
		}
		if len(chosen) == opt.MaxExtraAtoms {
			return true
		}
		for i := start; i < len(pool); i++ {
			chosen = append(chosen, pool[i])
			if !rec(i + 1) {
				chosen = chosen[:len(chosen)-1]
				return false
			}
			chosen = chosen[:len(chosen)-1]
		}
		return true
	}
	return rec(0)
}
