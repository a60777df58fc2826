package hypergraph

import (
	"math/rand"
	"slices"
	"testing"

	"cqapprox/internal/relstr"
)

// randomStructure draws a structure of up to maxAtoms atoms over
// E (binary) and R (ternary) whose elements lie in base…base+n−1;
// small n makes duplicate edges, loops such as E(x,x) and singleton
// atoms such as R(x,x,x) common.
func randomStructure(rng *rand.Rand, n, maxAtoms, base int) *relstr.Structure {
	s := relstr.New()
	e := func() int { return base + rng.Intn(n) }
	for i := rng.Intn(maxAtoms + 1); i > 0; i-- {
		switch rng.Intn(3) {
		case 0:
			s.Add("E", e(), e())
		case 1:
			s.Add("R", e(), e(), e())
		default:
			x := e()
			s.Add("R", x, x, x)
		}
	}
	return s
}

// edgeMasks is one vertex bitmask per tuple of s, whose elements lie
// in 0…63.
func edgeMasks(s *relstr.Structure) []uint64 {
	var edges []uint64
	for _, rel := range s.Relations() {
		for _, t := range s.Tuples(rel) {
			var m uint64
			for _, e := range t {
				m |= 1 << uint(e)
			}
			edges = append(edges, m)
		}
	}
	return edges
}

// The bitmask GYO agrees with the general one on random hypergraphs.
func TestAcyclicMasksMatchesGYO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(8)
		s := randomStructure(rng, n, 8, 0)
		want := FromStructure(s).IsAcyclic()
		edges := edgeMasks(s)
		// Duplicate edges beyond what the structure's set semantics
		// keep: repeat a random edge.
		if len(edges) > 0 && rng.Intn(2) == 0 {
			edges = append(edges, edges[rng.Intn(len(edges))])
		}
		in := slices.Clone(edges)
		if got := AcyclicMasks(edges); got != want {
			t.Fatalf("%v: AcyclicMasks = %v, GYO = %v", s, got, want)
		}
		if !slices.Equal(edges, in) {
			t.Fatalf("%v: AcyclicMasks changed its input %b to %b", s, in, edges)
		}
	}
}

func TestAcyclicMasksEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		edges []uint64
		want  bool
	}{
		{"empty", nil, true},
		{"empty edge", []uint64{0}, true},
		{"loop", []uint64{1}, true},
		{"duplicates", []uint64{3, 3, 3}, true},
		{"triangle", []uint64{3, 6, 5}, false},
		{"covered triangle", []uint64{3, 6, 5, 7}, true},
		{"C4", []uint64{3, 6, 12, 9}, false},
		{"vertex 63", []uint64{1<<63 | 1, 1<<63 | 2, 3}, false},
	}
	for _, c := range cases {
		if got := AcyclicMasks(append([]uint64(nil), c.edges...)); got != c.want {
			t.Errorf("%s: AcyclicMasks = %v, want %v", c.name, got, c.want)
		}
		if got := FromMasks(c.edges).IsAcyclic(); got != c.want {
			t.Errorf("%s: FromMasks(…).IsAcyclic = %v, want %v", c.name, got, c.want)
		}
	}
}
