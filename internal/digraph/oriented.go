package digraph

import (
	"fmt"

	"cqapprox/internal/relstr"
)

// An OrientedPath is a digraph built from a {0,1}-string as in the
// paper: character i describes the i-th edge of the path on nodes
// 0,…,n; '0' is a forward edge (i → i+1) and '1' a backward edge
// (i+1 → i). Init and Term are the initial and terminal nodes.
type OrientedPath struct {
	G    *relstr.Structure
	Init int
	Term int
	Desc string
}

// OrientedPathFromString builds the oriented path described by desc
// (e.g. "001000" is the paper's P1 building block in Prop 4.4).
func OrientedPathFromString(desc string) OrientedPath {
	s := New()
	for i, c := range desc {
		switch c {
		case '0':
			s.Add(EdgeRel, i, i+1)
		case '1':
			s.Add(EdgeRel, i+1, i)
		default:
			panic(fmt.Sprintf("digraph: bad oriented path description %q", desc))
		}
	}
	if len(desc) == 0 {
		s.AddElement(0)
	}
	return OrientedPath{G: s, Init: 0, Term: len(desc), Desc: desc}
}

// NetLength returns the number of forward edges minus the number of
// backward edges of the description string.
func NetLength(desc string) int {
	n := 0
	for _, c := range desc {
		if c == '0' {
			n++
		} else {
			n--
		}
	}
	return n
}

// Reverse returns the same path with Init and Term swapped (the paper's
// P⁻¹ used when concatenating, e.g. T1 · T5⁻¹).
func (p OrientedPath) Reverse() OrientedPath {
	return OrientedPath{G: p.G, Init: p.Term, Term: p.Init, Desc: "rev(" + p.Desc + ")"}
}

// Pointed is a digraph with designated initial and terminal nodes,
// the shape used by the paper's concatenation constructions.
type Pointed struct {
	G    *relstr.Structure
	Init int
	Term int
}

// AsPointed converts an oriented path into a Pointed digraph.
func (p OrientedPath) AsPointed() Pointed { return Pointed{G: p.G, Init: p.Init, Term: p.Term} }

// Reverse swaps the roles of Init and Term (the paper's G⁻¹).
func (g Pointed) Reverse() Pointed { return Pointed{G: g.G, Init: g.Term, Term: g.Init} }

// Concat returns the concatenation a·b: the disjoint union of a and b
// with a.Term identified with b.Init. The result's Init is a's and Term
// is b's.
func Concat(a, b Pointed) Pointed {
	u, off := relstr.DisjointUnion(a.G, b.G)
	// Identify a.Term with b.Init+off.
	target := a.Term
	src := b.Init + off
	merged := u.Map(func(e int) int {
		if e == src {
			return target
		}
		return e
	})
	term := b.Term + off
	if term == src {
		term = target
	}
	return Pointed{G: merged, Init: a.Init, Term: term}
}

// Glue attaches the pointed digraph p to the host: it disjointly adds
// p, then identifies p.Init with hostInit and p.Term with hostTerm
// (elements of host). It returns the new structure. hostInit and
// hostTerm may be fresh elements of host's domain.
func Glue(host *relstr.Structure, hostInit, hostTerm int, p Pointed) *relstr.Structure {
	u, off := relstr.DisjointUnion(host, p.G)
	src1, src2 := p.Init+off, p.Term+off
	return u.Map(func(e int) int {
		switch e {
		case src1:
			return hostInit
		case src2:
			return hostTerm
		default:
			return e
		}
	})
}

// GlueAt attaches p identifying only p.Init with hostNode; p.Term
// becomes a fresh node whose identity is returned.
func GlueAt(host *relstr.Structure, hostNode int, p Pointed) (*relstr.Structure, int) {
	u, off := relstr.DisjointUnion(host, p.G)
	src := p.Init + off
	out := u.Map(func(e int) int {
		if e == src {
			return hostNode
		}
		return e
	})
	term := p.Term + off
	if term == src {
		term = hostNode
	}
	return out, term
}
