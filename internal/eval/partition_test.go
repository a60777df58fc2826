package eval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cqapprox/internal/cluster"
	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// clusterRels are the relation names the cluster fuzz draws atoms
// from: several relations so the partitioned/replicated split and the
// partitioned-occurrence count actually vary across inputs.
var clusterRels = []string{"E", "R", "S"}

// randomClusterQuery is randomQuery over the three-relation schema,
// with heads wide enough (any subset of the used variables) that the
// count-summability predicate fires on a useful fraction of inputs.
func randomClusterQuery(rng *rand.Rand) *cq.Query {
	for {
		nv := 2 + rng.Intn(4)
		na := 1 + rng.Intn(4)
		q := &cq.Query{Name: "Q"}
		vars := make([]string, nv)
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
		}
		used := map[string]bool{}
		for i := 0; i < na; i++ {
			a := cq.Atom{Rel: clusterRels[rng.Intn(len(clusterRels))], Args: []string{
				vars[rng.Intn(nv)], vars[rng.Intn(nv)],
			}}
			q.Atoms = append(q.Atoms, a)
			used[a.Args[0]] = true
			used[a.Args[1]] = true
		}
		for _, v := range vars {
			if used[v] && rng.Intn(2) == 0 {
				q.Head = append(q.Head, v)
			}
		}
		if NewPlan(q).Mode() != PlanYannakakis {
			continue
		}
		return q
	}
}

func randomClusterDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	for _, rel := range clusterRels {
		db.Declare(rel, 2)
		for i := 0; i < m; i++ {
			db.Add(rel, rng.Intn(n), rng.Intn(n))
		}
	}
	return db
}

// checkClusterEquivalence is the property both the fuzz target and the
// quickcheck run: on a random query, database, shard count and
// partitioned-relation set (trimmed to at most one partitioned atom
// occurrence — the union-decomposability precondition the server's
// router enforces before scattering), per-shard evaluation followed by
// the deterministic merges must be byte-identical to single-node
// evaluation. Each shard is a real structure holding the facts it
// owns, as the server's placement slices it, evaluated both borrowed
// and deep-copied into a snapshot: answers, answer existence, summed
// exact counts, and merged ranked top-k.
func checkClusterEquivalence(t *testing.T, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	q := randomClusterQuery(rng)
	db := randomClusterDB(rng, 5, 7)
	p := NewPlan(q)
	want, _, err := p.Eval(ctx, relstr.Borrow(db), Read{})
	if err != nil {
		t.Fatal(err)
	}

	nShards := 1 + rng.Intn(4)
	members := make([]string, nShards)
	for i := range members {
		members[i] = fmt.Sprintf("http://node-%d", i)
	}
	ring := cluster.NewRing(members, 8)

	// Partition a random subset of the relations, then un-partition
	// until at most one atom occurrence of q references a partitioned
	// relation — beyond that the server routes to its full local copy
	// instead of scattering, so the merge contract does not apply.
	partitioned := map[string]bool{}
	for _, rel := range clusterRels {
		partitioned[rel] = rng.Intn(2) == 0
	}
	seen := false
	for _, a := range q.Atoms {
		if partitioned[a.Rel] {
			if seen {
				partitioned[a.Rel] = false
			}
			seen = true
		}
	}
	isPart := func(rel string) bool { return partitioned[rel] }
	if occ := p.PartitionedOccurrences(isPart); occ > 1 {
		t.Fatalf("trim left %d partitioned occurrences, q=%v partitioned=%v", occ, q, partitioned)
	}
	summable := p.CountSummable(isPart)
	owns := func(shard int) func(rel string, tuple []int) bool {
		return func(rel string, tuple []int) bool {
			if !partitioned[rel] {
				return true
			}
			return ring.OwnerOfTuple(rel, tuple) == shard
		}
	}

	var spec RankSpec
	rankable := len(q.Head) > 0
	if rankable {
		spec = RankSpec{
			Order: []int{rng.Intn(len(q.Head))},
			Desc:  rng.Intn(2) == 1,
			Limit: 1 + rng.Intn(4),
		}
	}
	var wantRanked Answers
	if rankable {
		if wantRanked, _, err = p.Eval(ctx, relstr.Borrow(db), Read{Par: 1, Rank: spec}); err != nil {
			t.Fatal(err)
		}
	}

	// shardDB is shard s's slice of db: the full schema plus the facts
	// owns(s) admits.
	shardDB := func(s int) *relstr.Structure {
		own := owns(s)
		sdb := db.CloneSchema()
		for _, rel := range db.Relations() {
			for _, t := range db.Tuples(rel) {
				if own(rel, t) {
					sdb.Add(rel, t...)
				}
			}
		}
		return sdb
	}
	backends := []struct {
		name string
		mk   func(*relstr.Structure) *relstr.Snapshot
	}{
		{"struct", relstr.Borrow},
		{"snapshot", relstr.NewSnapshot},
	}
	for _, b := range backends {
		parts := make([]Answers, nShards)
		ranked := make([]Answers, nShards)
		anyHit := false
		var countSum uint64
		for s := 0; s < nShards; s++ {
			shard := b.mk(shardDB(s))
			ans, err := p.evalTuned(ctx, shard, 2)
			if err != nil {
				t.Fatal(err)
			}
			parts[s] = ans
			hit, err := p.evalBoolTuned(ctx, shard, 2)
			if err != nil {
				t.Fatal(err)
			}
			if hit != (len(ans) > 0) {
				t.Fatalf("%s shard %d/%d: bool %v with %d answers, q=%v", b.name, s, nShards, hit, len(ans), q)
			}
			anyHit = anyHit || hit
			if summable {
				n, err := p.countForTest(ctx, shard, 2)
				if err != nil {
					t.Fatal(err)
				}
				countSum += n
			}
			if rankable {
				if ranked[s], _, err = p.Eval(ctx, shard, Read{Par: 1, Rank: spec}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if merged := MergeAnswers(parts, len(q.Head), RankSpec{}); !sameAnswers(merged, want) {
			t.Fatalf("%s: merged scatter answers diverge (%d shards, partitioned %v):\n  merged %v\n  single %v\n  q=%v",
				b.name, nShards, partitioned, merged, want, q)
		}
		if anyHit != (len(want) > 0) {
			t.Fatalf("%s: scatter bool %v with %d single-node answers, q=%v", b.name, anyHit, len(want), q)
		}
		if summable && countSum != uint64(len(want)) {
			t.Fatalf("%s: summed shard counts %d, single-node %d (%d shards, partitioned %v), q=%v",
				b.name, countSum, len(want), nShards, partitioned, q)
		}
		if rankable {
			if merged := MergeAnswers(ranked, len(q.Head), spec); !sameAnswers(merged, wantRanked) {
				t.Fatalf("%s: merged ranked answers diverge under %+v:\n  merged %v\n  single %v\n  q=%v",
					b.name, spec, merged, wantRanked, q)
			}
		}
	}
}

// FuzzClusterEquivalence asserts scatter-gather evaluation is
// byte-identical to single-node: per-shard evaluation over 1–4 shards
// (consistent-hash tuple ownership, replicated relations everywhere)
// merged through MergeAnswers, plain and ranked, equals the
// single-node answer set, existence and summed exact counts included,
// with each shard evaluated borrowed and deep-copied.
func FuzzClusterEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(987654321))
	f.Fuzz(checkClusterEquivalence)
}

// The quickcheck twin of the fuzz target, run on every plain `go test`.
func TestQuickClusterEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		checkClusterEquivalence(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
