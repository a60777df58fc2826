package cqapprox

import (
	"testing"

	"cqapprox/internal/core"
	"cqapprox/internal/hom"
	"cqapprox/internal/workload"
)

// BenchmarkApproxSearch times the approximation search alone — the
// "search" phase of Prepare — on the minimized query, for the pairs
// that dominate prepare_cold's search time (T3 and C6+chord into AC)
// and two graph-based references. It reports the candidates each
// search inspects as candidates/op, a count benchcheck gates against
// any growth.
func BenchmarkApproxSearch(b *testing.B) {
	classes := []struct {
		name string
		c    Class
	}{{"AC", AC()}, {"TW1", TW(1)}}
	queries := []*Query{
		workload.TernaryCycleQuery(3),
		workload.ChordedCycleQuery(6),
		workload.CycleQuery(5),
	}
	opt := DefaultOptions()
	for _, cl := range classes {
		for _, q := range queries {
			min := hom.Minimize(q)
			b.Run(cl.name+"/"+q.Name, func(b *testing.B) {
				b.ReportAllocs()
				inspected := 0
				for i := 0; i < b.N; i++ {
					res, err := core.ApproximationsWithStats(min, cl.c, opt)
					if err != nil {
						b.Fatal(err)
					}
					inspected = res.CandidatesInspected
				}
				b.ReportMetric(float64(inspected), "candidates/op")
			})
		}
	}
}
