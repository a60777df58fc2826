package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
	"cqapprox/internal/workload"
)

// searchGolden is the approximation search's output on the benchmark's
// query suite: per (class, query) the count of inspected candidates and
// the rendering of every approximation, in front order.
const searchGolden = "testdata/search_golden.tsv"

var goldenClasses = []Class{TW(1), TW(2), AC(), HTW(2), GHTW(2)}

// goldenLine renders one search result: class label, query, candidates
// inspected, then one field per approximation.
func goldenLine(t *testing.T, label string, c Class, q *cq.Query) string {
	t.Helper()
	res, err := ApproximationsWithStats(q, c, DefaultOptions())
	if err != nil {
		t.Fatalf("%v into %s: %v", q, label, err)
	}
	fields := []string{label, q.String(), fmt.Sprint(res.CandidatesInspected)}
	for _, a := range res.Queries {
		fields = append(fields, a.String())
	}
	return strings.Join(fields, "\t")
}

// checkGolden compares the search over classes, labelled by the
// built-in class each stands for, against the committed golden.
func checkGolden(t *testing.T, classes []Class) {
	t.Helper()
	raw, err := os.ReadFile(searchGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if n := len(workload.QuerySuite()) * len(classes); len(want) != n {
		t.Fatalf("%s has %d lines, want %d", searchGolden, len(want), n)
	}
	i := 0
	for _, q := range workload.QuerySuite() {
		for k, c := range classes {
			if got := goldenLine(t, goldenClasses[k].Name(), c, q); got != want[i] {
				t.Errorf("%s line %d:\n got %s\nwant %s", searchGolden, i+1, got, want[i])
			}
			i++
		}
	}
}

// The search returns exactly the committed approximations, in the
// committed order, after inspecting the committed number of candidates.
func TestSearchGolden(t *testing.T) {
	checkGolden(t, goldenClasses)
}

// userClass is a class defined outside this package: it reaches the
// search only through Contains on a built structure.
type userClass struct {
	name string
	c    Class
}

func (u userClass) Name() string                      { return u.name }
func (u userClass) Contains(s *relstr.Structure) bool { return u.c.Contains(s) }
func (u userClass) GraphBased() bool                  { return u.c.GraphBased() }

// A user-defined class with the semantics of a built-in one gets the
// same approximations and inspects the same candidates: the Contains
// fallback visits the candidate space the built-in membership tests do.
func TestSearchGoldenUserClass(t *testing.T) {
	classes := []Class{
		userClass{"user-TW(1)", TW(1)},
		TW(2),
		userClass{"user-AC", AC()},
		HTW(2),
		GHTW(2),
	}
	checkGolden(t, classes)
}
