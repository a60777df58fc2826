// Package relstr implements finite relational structures over integer
// domains. A Structure serves both as a database instance and as the
// tableau of a conjunctive query, exactly as in Barceló, Libkin and
// Romero, "Efficient Approximations of Conjunctive Queries" (PODS 2012),
// where tableaux are ordinary σ-structures.
//
// Elements of the domain are ints. Relations are sets of tuples; adding
// a duplicate tuple is a no-op. The active domain of a structure is the
// set of elements that occur in some tuple, plus any elements registered
// explicitly with AddElement (needed for structures with isolated
// distinguished elements).
package relstr

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Tuple is an ordered list of domain elements.
type Tuple []int

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key returns a string key identifying t, usable as a map key.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func (t Tuple) String() string { return "(" + t.Key() + ")" }

// Equal reports whether t and u are identical tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically (shorter prefixes first),
// returning -1, 0 or +1. This is the single comparison the evaluation
// runtime and the answer path share; it never materialises keys.
func Compare(a, b Tuple) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// relation holds the tuples of one relation symbol: an insertion-
// ordered, integer-hashed tuple set.
type relation struct {
	arity int
	set   TupleSet
}

// Structure is a finite relational structure: a vocabulary of relation
// symbols with fixed arities, and a set of tuples per symbol.
type Structure struct {
	rels  map[string]*relation
	extra map[int]bool // elements registered outside any tuple
}

// New returns an empty structure.
func New() *Structure {
	return &Structure{rels: map[string]*relation{}, extra: map[int]bool{}}
}

// Declare registers relation symbol name with the given arity. It is an
// error (panic) to redeclare a symbol with a different arity. Declaring
// an already-declared symbol with the same arity is a no-op.
func (s *Structure) Declare(name string, arity int) {
	if arity < 1 {
		panic(fmt.Sprintf("relstr: relation %q declared with arity %d", name, arity))
	}
	if r, ok := s.rels[name]; ok {
		if r.arity != arity {
			panic(fmt.Sprintf("relstr: relation %q redeclared with arity %d (was %d)", name, arity, r.arity))
		}
		return
	}
	s.rels[name] = &relation{arity: arity}
}

// Add inserts the fact name(elems...) into the structure, declaring the
// relation if needed. Duplicate facts are ignored. It reports whether
// the fact was newly added.
func (s *Structure) Add(name string, elems ...int) bool {
	r, ok := s.rels[name]
	if !ok {
		s.Declare(name, len(elems))
		r = s.rels[name]
	}
	if r.arity != len(elems) {
		panic(fmt.Sprintf("relstr: relation %q has arity %d, got tuple of length %d", name, r.arity, len(elems)))
	}
	return r.set.AddCopy(elems)
}

// AddElement registers e as a domain element even if it occurs in no
// tuple. This matters for tableaux of queries such as Q(x):-R(y,y),
// whose free variable is isolated.
func (s *Structure) AddElement(e int) { s.extra[e] = true }

// Has reports whether the fact name(elems...) is present.
func (s *Structure) Has(name string, elems ...int) bool {
	r, ok := s.rels[name]
	if !ok || r.arity != len(elems) {
		return false
	}
	return r.set.Has(elems)
}

// Remove deletes the fact name(elems...) if present, reporting whether
// it was removed.
func (s *Structure) Remove(name string, elems ...int) bool {
	r, ok := s.rels[name]
	if !ok || r.arity != len(elems) {
		return false
	}
	return r.set.Remove(elems)
}

// Relations returns the declared relation symbols in sorted order.
func (s *Structure) Relations() []string {
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Arity returns the arity of relation name, or 0 if undeclared.
func (s *Structure) Arity(name string) int {
	if r, ok := s.rels[name]; ok {
		return r.arity
	}
	return 0
}

// MaxArity returns the maximum arity over all declared relations
// (0 for an empty vocabulary).
func (s *Structure) MaxArity() int {
	m := 0
	for _, r := range s.rels {
		if r.arity > m {
			m = r.arity
		}
	}
	return m
}

// Tuples returns the tuples of relation name in insertion order. The
// returned slice is owned by the structure and must not be modified.
func (s *Structure) Tuples(name string) []Tuple {
	if r, ok := s.rels[name]; ok {
		return r.set.Rows()
	}
	return nil
}

// SortedTuples returns the tuples of relation name in lexicographic
// order, as a fresh slice.
func (s *Structure) SortedTuples(name string) []Tuple {
	src := s.Tuples(name)
	out := make([]Tuple, len(src))
	copy(out, src)
	sort.Slice(out, func(i, j int) bool { return Compare(out[i], out[j]) < 0 })
	return out
}

// NumFacts returns the total number of tuples across all relations.
func (s *Structure) NumFacts() int {
	n := 0
	for _, r := range s.rels {
		n += r.set.Len()
	}
	return n
}

// Size returns the total size |D| = Σ arity·(#tuples), the standard
// size measure for structures.
func (s *Structure) Size() int {
	n := 0
	for _, r := range s.rels {
		n += r.arity * r.set.Len()
	}
	return n
}

// Domain returns the active domain in ascending order.
func (s *Structure) Domain() []int {
	out := make([]int, 0, s.Size()+len(s.extra))
	for _, r := range s.rels {
		for _, t := range r.set.Rows() {
			out = append(out, t...)
		}
	}
	for e := range s.extra {
		out = append(out, e)
	}
	sort.Ints(out)
	return slices.Clip(slices.Compact(out))
}

// DomainSet returns the active domain as a set. The returned map is
// fresh and may be modified by the caller.
func (s *Structure) DomainSet() map[int]bool {
	set := make(map[int]bool)
	for _, r := range s.rels {
		for _, t := range r.set.Rows() {
			for _, e := range t {
				set[e] = true
			}
		}
	}
	for e := range s.extra {
		set[e] = true
	}
	return set
}

// DomainSize returns |adom(s)|.
func (s *Structure) DomainSize() int { return len(s.DomainSet()) }

// Clone returns a deep copy of s.
func (s *Structure) Clone() *Structure {
	c := New()
	for name, r := range s.rels {
		c.Declare(name, r.arity)
		for _, t := range r.set.Rows() {
			c.Add(name, t...)
		}
	}
	for e := range s.extra {
		c.AddElement(e)
	}
	return c
}

// CloneSchema returns an empty structure with the same declared
// vocabulary as s.
func (s *Structure) CloneSchema() *Structure {
	c := New()
	for name, r := range s.rels {
		c.Declare(name, r.arity)
	}
	return c
}

// Equal reports whether s and o have the same vocabulary and exactly
// the same facts (and the same registered extra elements).
func (s *Structure) Equal(o *Structure) bool {
	if len(s.rels) != len(o.rels) {
		return false
	}
	for name, r := range s.rels {
		or, ok := o.rels[name]
		if !ok || or.arity != r.arity || or.set.Len() != r.set.Len() {
			return false
		}
		for _, t := range r.set.Rows() {
			if !or.set.Has(t) {
				return false
			}
		}
	}
	sd, od := s.DomainSet(), o.DomainSet()
	if len(sd) != len(od) {
		return false
	}
	for e := range sd {
		if !od[e] {
			return false
		}
	}
	return true
}

// String renders the structure deterministically, e.g.
// "E(0,1) E(1,2) R(0,0,3)".
func (s *Structure) String() string {
	var parts []string
	for _, name := range s.Relations() {
		for _, t := range s.SortedTuples(name) {
			parts = append(parts, name+t.String())
		}
	}
	if len(parts) == 0 {
		return "⊥(empty)"
	}
	return strings.Join(parts, " ")
}
