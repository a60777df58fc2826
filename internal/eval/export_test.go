package eval

import (
	"math/rand"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// Hooks for the external tests (package eval_test), which can import
// internal/count where the in-package tests cannot.

// UseReferenceSampler makes every TreeSample run the reference
// O(forest) step (refSample) until restore is called.
func UseReferenceSampler() (restore func()) {
	treeSample = refSample
	return func() { treeSample = (*treeSampler).sample }
}

// RandomProjectingCase draws a random query that needs the sampling
// estimator and a random database for it.
func RandomProjectingCase(rng *rand.Rand) (*cq.Query, *relstr.Structure) {
	return randomProjectingQuery(rng), randomProjectingDB(rng)
}
