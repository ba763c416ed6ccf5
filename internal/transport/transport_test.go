package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/obs"
)

func TestSolveSingleSourceSingleSink(t *testing.T) {
	p := &Problem{
		Supply:   []float64{3},
		Capacity: []float64{5},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 2}}},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-6) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 6", name, sol.Cost)
		}
		if got := sol.Rounded(); got[0] != 0 {
			t.Fatalf("%s: rounded = %v", name, got)
		}
	}
}

func engines() map[string]func(*Problem) (*Solution, error) {
	return map[string]func(*Problem) (*Solution, error){
		"reference": SolveReference,
		"condensed": Solve,
	}
}

func TestSolveOverflowMovesCheapestSource(t *testing.T) {
	// Both sources prefer sink 0 (cap 1); source 1 is cheaper to move away.
	p := &Problem{
		Supply:   []float64{1, 1},
		Capacity: []float64{1, 1},
		Arcs: [][]Arc{
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 10}},
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}},
		},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-1) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 1", name, sol.Cost)
		}
		r := sol.Rounded()
		if r[0] != 0 || r[1] != 1 {
			t.Fatalf("%s: rounded = %v", name, r)
		}
	}
}

func TestSolveRespectsAdmissibility(t *testing.T) {
	// Source 0 may only use sink 1 even though sink 0 is free.
	p := &Problem{
		Supply:   []float64{2},
		Capacity: []float64{10, 2},
		Arcs:     [][]Arc{{{Sink: 1, Cost: 7}}},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := sol.Rounded(); r[0] != 1 {
			t.Fatalf("%s: rounded = %v", name, r)
		}
	}
}

func TestSolveInfeasibleDetected(t *testing.T) {
	p := &Problem{
		Supply:   []float64{5},
		Capacity: []float64{2, 100},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 1}}}, // big sink inadmissible
	}
	for name, solve := range engines() {
		if _, err := solve(p); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
}

func TestSolveNoAdmissibleSink(t *testing.T) {
	p := &Problem{
		Supply:   []float64{1},
		Capacity: []float64{1},
		Arcs:     [][]Arc{nil},
	}
	for name, solve := range engines() {
		if _, err := solve(p); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
}

func TestSolveSplitSource(t *testing.T) {
	// One source of size 2 must split across two sinks of capacity 1.
	p := &Problem{
		Supply:   []float64{2},
		Capacity: []float64{1, 1},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 1}, {Sink: 1, Cost: 3}}},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-4) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 4", name, sol.Cost)
		}
		if len(sol.Assign[0]) != 2 {
			t.Fatalf("%s: assign = %v, want split", name, sol.Assign[0])
		}
		if sol.NumSplit() != 1 {
			t.Fatalf("%s: NumSplit = %d", name, sol.NumSplit())
		}
	}
}

func TestSolveChainReassignment(t *testing.T) {
	// Classic chain: overflow at sink 0 is resolved by a two-hop shuffle
	// 0 -> 1 -> 2, which is cheaper than the direct move 0 -> 2.
	p := &Problem{
		Supply:   []float64{1, 1, 1},
		Capacity: []float64{1, 1, 1},
		Arcs: [][]Arc{
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}, {Sink: 2, Cost: 100}},
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}, {Sink: 2, Cost: 100}},
			{{Sink: 0, Cost: 50}, {Sink: 1, Cost: 0}, {Sink: 2, Cost: 2}},
		},
	}
	// Optimal: sources 0,1 at sinks 0,1; source 2 moves to sink 2: cost 0+1+2.
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-3) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 3", name, sol.Cost)
		}
	}
}

// randomProblem builds a feasible random instance with float costs (to
// avoid ties) and returns it.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(12)
	k := 1 + rng.Intn(5)
	p := &Problem{
		Supply:   make([]float64, n),
		Capacity: make([]float64, k),
		Arcs:     make([][]Arc, n),
	}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = 0.5 + rng.Float64()*3
		total += p.Supply[i]
	}
	// Every source admissible to a random nonempty sink subset always
	// including sink 0; sink 0 large enough to guarantee feasibility.
	for i := range p.Arcs {
		p.Arcs[i] = append(p.Arcs[i], Arc{Sink: 0, Cost: rng.Float64() * 10})
		for j := 1; j < k; j++ {
			if rng.Intn(2) == 0 {
				p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: rng.Float64() * 10})
			}
		}
	}
	for j := 1; j < k; j++ {
		p.Capacity[j] = rng.Float64() * total / float64(k)
	}
	p.Capacity[0] = total
	return p
}

// placementProblem builds a realization-shaped instance: n cells shipping
// integer areas to k region sinks at L1 distance. A third of the cells sit
// on one shared vertical line, as cells snapped to a window boundary do, so
// whole groups of them tie on their reassignment costs. Half the others sit
// in co-located clumps (identical cost rows). Total capacity exceeds total
// supply by 0-10%, and about a quarter of the arcs to sinks other than sink
// 0 are inadmissible, as under movebounds.
func placementProblem(rng *rand.Rand, n, k int) *Problem {
	const side = 100
	type point struct{ x, y float64 }
	randPoint := func() point { return point{float64(rng.Intn(side)), float64(rng.Intn(side))} }
	sinks := make([]point, k)
	for j := range sinks {
		sinks[j] = randPoint()
	}
	clumps := make([]point, 1+rng.Intn(8))
	for c := range clumps {
		clumps[c] = randPoint()
	}
	line := float64(rng.Intn(side))
	p := &Problem{
		Supply:   make([]float64, n),
		Capacity: make([]float64, k),
		Arcs:     make([][]Arc, n),
	}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = float64(1 + rng.Intn(4))
		total += p.Supply[i]
		at := randPoint()
		switch i % 6 {
		case 0, 3:
			at.x = line
		case 1, 4:
			at = clumps[rng.Intn(len(clumps))]
		}
		for j, s := range sinks {
			if j > 0 && rng.Intn(4) == 0 {
				continue
			}
			p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: math.Abs(at.x-s.x) + math.Abs(at.y-s.y)})
		}
	}
	weights := make([]float64, k)
	sum := 0.0
	for j := range weights {
		weights[j] = 0.5 + rng.Float64()
		sum += weights[j]
	}
	capTotal := total * (1 + 0.1*rng.Float64())
	for j, w := range weights {
		p.Capacity[j] = capTotal * w / sum
	}
	return p
}

// PlacementProblem exports the generator to the external tests of this
// package.
var PlacementProblem = placementProblem

// Property: the condensed engine matches the reference engine's optimal
// cost without falling back to it, and agrees with it on feasibility, on
// small random instances and on placement-shaped ones up to n = 2k cells
// and k = 80 sinks.
func TestCondensedMatchesReference(t *testing.T) {
	placement := func(minN, maxN, minK, maxK int) func(*rand.Rand) *Problem {
		return func(rng *rand.Rand) *Problem {
			return placementProblem(rng, minN+rng.Intn(maxN-minN+1), minK+rng.Intn(maxK-minK+1))
		}
	}
	for _, tc := range []struct {
		name  string
		gen   func(*rand.Rand) *Problem
		count int
	}{
		{"random", randomProblem, 200},
		{"placement", placement(100, 999, 4, 32), 60},
		{"placement-large", placement(1000, 2000, 40, 80), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				p := tc.gen(rand.New(rand.NewSource(seed)))
				p.Degrade = degrade.New(nil) // a fallback would compare the reference with itself
				ref, err1 := SolveReference(p)
				got, err2 := Solve(p)
				if p.Degrade.Len() != 0 {
					t.Logf("seed %d: condensed engine fell back: %v", seed, p.Degrade.Events())
					return false
				}
				if err1 != nil || err2 != nil {
					return err1 != nil && err2 != nil // both must agree on feasibility
				}
				return math.Abs(ref.Cost-got.Cost) < 1e-6*(1+math.Abs(ref.Cost))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: tc.count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: solutions ship all supply, respect capacities, and split at
// most k-1 sources (almost-integrality, paper §III / [4]).
func TestSolutionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		sol, err := Solve(p)
		if err != nil {
			return true
		}
		loads := make([]float64, p.NumSinks())
		for i, ps := range sol.Assign {
			sum := 0.0
			for _, pr := range ps {
				if pr.Amount <= 0 {
					return false
				}
				loads[pr.Sink] += pr.Amount
				sum += pr.Amount
				// Assigned sink must be admissible.
				ok := false
				for _, a := range p.Arcs[i] {
					if a.Sink == pr.Sink {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
			if math.Abs(sum-p.Supply[i]) > 1e-6 {
				return false
			}
		}
		for j, l := range loads {
			if l > p.Capacity[j]+1e-6 {
				return false
			}
		}
		return sol.NumSplit() <= p.NumSinks()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundedMajority(t *testing.T) {
	sol := &Solution{Assign: [][]Portion{
		{{Sink: 2, Amount: 5}, {Sink: 1, Amount: 1}},
		{{Sink: 0, Amount: 1}},
		nil,
	}}
	got := sol.Rounded()
	if got[0] != 2 || got[1] != 0 || got[2] != -1 {
		t.Fatalf("Rounded = %v", got)
	}
}

// assertSolutionsEquivalent fails unless the two solutions agree on cost,
// per-source totals and capacity feasibility (portion sets may differ
// between optima with ties, so only aggregate invariants are compared).
func assertSolutionsEquivalent(t *testing.T, p *Problem, got, want *Solution) {
	t.Helper()
	if math.Abs(got.Cost-want.Cost) > 1e-6*(1+math.Abs(want.Cost)) {
		t.Fatalf("cost %v, want %v", got.Cost, want.Cost)
	}
	loads := make([]float64, p.NumSinks())
	for i, ps := range got.Assign {
		sum := 0.0
		for _, pr := range ps {
			sum += pr.Amount
			loads[pr.Sink] += pr.Amount
		}
		if math.Abs(sum-p.Supply[i]) > 1e-6 {
			t.Fatalf("source %d ships %v, supply %v", i, sum, p.Supply[i])
		}
	}
	for j, l := range loads {
		if l > p.Capacity[j]+1e-6 {
			t.Fatalf("sink %d load %v > capacity %v", j, l, p.Capacity[j])
		}
	}
	if got.NumSplit() > p.NumSinks()-1 {
		t.Fatalf("NumSplit = %d > k-1 = %d", got.NumSplit(), p.NumSinks()-1)
	}
}

// Satellite: a faultsim-armed condensed failure must fall back to the
// reference engine with a correct Solution (portions, NumSplit) and a
// degrade counter bump.
func TestCondensedFallbackFaultsim(t *testing.T) {
	defer faultsim.Reset()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng)
		want, err := SolveReference(p)
		if err != nil {
			continue
		}
		if err := faultsim.Arm("transport.condensed.fail", faultsim.Schedule{}); err != nil {
			t.Fatal(err)
		}
		rec := obs.New(nil)
		p.Obs = rec
		p.Degrade = degrade.New(rec)
		got, err := Solve(p)
		faultsim.Disarm("transport.condensed.fail")
		if err != nil {
			t.Fatalf("trial %d: fallback did not rescue the solve: %v", trial, err)
		}
		assertSolutionsEquivalent(t, p, got, want)
		if got := rec.Counter("degrade.transport.condensed"); got != 1 {
			t.Fatalf("trial %d: degrade.transport.condensed = %v, want 1", trial, got)
		}
		if p.Degrade.Len() != 1 {
			t.Fatalf("trial %d: degrade log has %d events, want 1", trial, p.Degrade.Len())
		}
		ev := p.Degrade.Events()[0]
		if ev.Stage != "transport.condensed" || ev.Fallback != "reference-engine" {
			t.Fatalf("trial %d: degrade event %+v", trial, ev)
		}
	}
}

// Satellite: fallbackWorthy must treat a solver stall as an engine
// failure (retry on the reference path) but never retry infeasibility
// certificates or context aborts.
func TestFallbackWorthySyntheticStall(t *testing.T) {
	stall := fmt.Errorf("transport: condensed engine: %w", &flow.ErrStalled{Pivots: 12345})
	if !fallbackWorthy(stall) {
		t.Fatal("a stall must be fallback-worthy")
	}
	if !fallbackWorthy(errors.New("transport: degenerate augmentation (move 0)")) {
		t.Fatal("an internal engine defect must be fallback-worthy")
	}
	if fallbackWorthy(fmt.Errorf("%w: 3 unrouted", ErrInfeasible)) {
		t.Fatal("infeasibility must not be retried")
	}
	if fallbackWorthy(context.Canceled) || fallbackWorthy(context.DeadlineExceeded) {
		t.Fatal("context aborts must not be retried")
	}
}

// Satellite: when both engines are armed to fail, the chain exhausts and
// the caller receives the reference engine's structured error, with the
// degrade event still recorded.
func TestCondensedFallbackChainExhausted(t *testing.T) {
	defer faultsim.Reset()
	if err := faultsim.Arm("transport.condensed.fail", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	if err := faultsim.Arm("transport.reference.fail", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Supply:   []float64{1},
		Capacity: []float64{2},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 1}}},
		Degrade:  degrade.New(nil),
	}
	_, err := Solve(p)
	if !errors.Is(err, faultsim.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if p.Degrade.Len() != 1 {
		t.Fatalf("degrade log has %d events, want 1", p.Degrade.Len())
	}
}

func BenchmarkCondensedLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n, k := 2000, 12
	p := &Problem{
		Supply:   make([]float64, n),
		Capacity: make([]float64, k),
		Arcs:     make([][]Arc, n),
	}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = 0.5 + rng.Float64()
		total += p.Supply[i]
		for j := 0; j < k; j++ {
			p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: rng.Float64() * 100})
		}
	}
	for j := range p.Capacity {
		p.Capacity[j] = 1.1 * total / float64(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCondensedPlacement solves placement-shaped instances at the
// block shapes realization meets: a 3x3 block of the 16-window level of a
// 20k-cell chip (26 sinks) and a shallow Table-I block (160 sinks).
func BenchmarkCondensedPlacement(b *testing.B) {
	for _, shape := range []struct{ n, k int }{{20000, 26}, {5000, 160}} {
		p := placementProblem(rand.New(rand.NewSource(1)), shape.n, shape.k)
		b.Run(fmt.Sprintf("n=%d/k=%d", shape.n, shape.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
