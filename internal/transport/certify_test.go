package transport_test

import (
	"math/rand"
	"testing"

	"fbplace/internal/certify"
	"fbplace/internal/degrade"
	"fbplace/internal/transport"
)

// At the 5k x 160 shape of a shallow Table-I block the reference engine
// takes seconds per instance, so the optimality certificate stands in for
// the comparison against it. Seeds 3 and 4 overload the sinks.
func TestCondensedCertifiedAtTableIShape(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := transport.PlacementProblem(rng, 5000, 160)
		if seed > 2 {
			p = transport.Overloaded(rng, p)
		}
		p.Degrade = degrade.New(nil)
		sol, err := transport.Solve(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.Degrade.Len() != 0 {
			t.Fatalf("seed %d: condensed engine fell back: %v", seed, p.Degrade.Events())
		}
		if err := (&certify.Checker{}).Transport(p, sol); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
