package certify_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fbplace/internal/certify"
	"fbplace/internal/fbp"
	"fbplace/internal/flow"
	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/placer"
	"fbplace/internal/region"
	"fbplace/internal/transport"
)

// level tags every error the tests expect; it must come back unchanged.
const level = 3

// witness is one crafted certificate violation: run returns the checker's
// verdict on a corrupted result.
type witness struct {
	name      string
	run       func(t *testing.T, c *certify.Checker) error
	layer     string
	invariant string
}

// wantViolation runs every witness and requires a *certify.Error naming
// the expected layer, level and invariant.
func wantViolation(t *testing.T, cases []witness) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t, &certify.Checker{Level: level})
			var ce *certify.Error
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *certify.Error", err)
			}
			if ce.Layer != tc.layer || ce.Invariant != tc.invariant || ce.Level != level {
				t.Fatalf("got %s/%s at level %d, want %s/%s at level %d (%v)",
					ce.Layer, ce.Invariant, ce.Level, tc.layer, tc.invariant, level, err)
			}
		})
	}
}

// solvedFlow solves a four-arc instance with the successive-shortest-path
// engine or the network simplex. Node 0 supplies 2; node 1 demands 2 and
// node 2 demands 5. The optimum ships one unit on each of arcs 0 and 1
// and leaves arcs 2 and 3 empty:
//
//	arc 0: 0->1 uncapacitated, cost 1
//	arc 1: 0->1 capacity 1, cost 0
//	arc 2: 1->2 capacity 3, cost 2
//	arc 3: 0->2 uncapacitated, cost 5
func solvedFlow(t *testing.T, simplex bool) *flow.MinCostFlow {
	t.Helper()
	g := flow.NewMinCostFlow(3)
	g.SetSupply(0, 2)
	g.SetSupply(1, -2)
	g.SetSupply(2, -5)
	g.AddArc(0, 1, flow.Inf, 1)
	g.AddArc(0, 1, 1, 0)
	g.AddArc(1, 2, 3, 2)
	g.AddArc(0, 2, flow.Inf, 5)
	solve := g.Solve
	if simplex {
		solve = g.SolveNS
	}
	if _, err := solve(); err != nil {
		t.Fatal(err)
	}
	if g.Flow(0) != 1 || g.Flow(1) != 1 || g.Flow(2) != 0 || g.Flow(3) != 0 {
		t.Fatalf("unexpected optimum: flows %g %g %g %g", g.Flow(0), g.Flow(1), g.Flow(2), g.Flow(3))
	}
	return g
}

func TestFlowCleanSolvesPass(t *testing.T) {
	for _, simplex := range []bool{false, true} {
		if err := (&certify.Checker{}).Flow(solvedFlow(t, simplex)); err != nil {
			t.Fatalf("simplex=%v: %v", simplex, err)
		}
	}
}

// The witnesses corrupt the exported potentials or the supplies after the
// solve. The flow-layer "capacity-feasibility" invariant has no witness:
// the public API reconstructs an arc's capacity as residual plus flow, so
// no caller can make a flow exceed it.
func TestFlowViolations(t *testing.T) {
	// flowWitness solves, lets corrupt tamper with the result, and checks.
	flowWitness := func(corrupt func(g *flow.MinCostFlow, pot []float64)) func(*testing.T, *certify.Checker) error {
		return func(t *testing.T, c *certify.Checker) error {
			g := solvedFlow(t, false)
			corrupt(g, g.Duals().Pot)
			return c.Flow(g)
		}
	}
	wantViolation(t, []witness{
		{"loaded arc with positive reduced cost", flowWitness(func(_ *flow.MinCostFlow, pot []float64) {
			pot[1] = pot[0] + 1 - 10 // arc 0 reduced cost +10, flow 1
		}), "flow", "complementary-slackness"},
		{"unsaturated arc with negative reduced cost", flowWitness(func(_ *flow.MinCostFlow, pot []float64) {
			pot[2] = pot[1] + 2 + 10 // arc 2 reduced cost -10, flow 0 of 3
		}), "flow", "complementary-slackness"},
		{"uncapacitated arc with negative reduced cost", flowWitness(func(_ *flow.MinCostFlow, pot []float64) {
			pot[1] = pot[0] + 1 + 10 // arc 0 reduced cost -10
		}), "flow", "dual-feasibility"},
		{"supply node ships too little", flowWitness(func(g *flow.MinCostFlow, _ []float64) {
			g.SetSupply(0, 3)
		}), "flow", "conservation"},
		{"demand node absorbs too much", flowWitness(func(g *flow.MinCostFlow, _ []float64) {
			g.SetSupply(1, -1)
		}), "flow", "conservation"},
		{"interior node leaks", flowWitness(func(g *flow.MinCostFlow, _ []float64) {
			g.SetSupply(0, 0)
		}), "flow", "conservation"},
	})
}

// smallTransport is a three-source, three-sink instance; source 2 may not
// use sink 0.
func smallTransport() *transport.Problem {
	return &transport.Problem{
		Supply:   []float64{2, 1, 3},
		Capacity: []float64{2, 2, 3},
		Arcs: [][]transport.Arc{
			{{Sink: 0, Cost: 1}, {Sink: 1, Cost: 3}},
			{{Sink: 0, Cost: 2}, {Sink: 1, Cost: 1}, {Sink: 2, Cost: 4}},
			{{Sink: 1, Cost: 2}, {Sink: 2, Cost: 1}},
		},
	}
}

func TestTransportCleanSolvesPass(t *testing.T) {
	for name, solve := range map[string]func(*transport.Problem) (*transport.Solution, error){
		"condensed": transport.Solve,
		"reference": transport.SolveReference,
	} {
		p := smallTransport()
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := (&certify.Checker{}).Transport(p, sol); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTransportViolations(t *testing.T) {
	// transportWitness solves the small instance, lets corrupt tamper with
	// the instance or the solution, and checks.
	transportWitness := func(corrupt func(p *transport.Problem, sol *transport.Solution)) func(*testing.T, *certify.Checker) error {
		return func(t *testing.T, c *certify.Checker) error {
			p := smallTransport()
			sol, err := transport.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(p, sol)
			return c.Transport(p, sol)
		}
	}
	wantViolation(t, []witness{
		{"sink out of range", transportWitness(func(p *transport.Problem, sol *transport.Solution) {
			sol.Assign[0] = []transport.Portion{{Sink: 7, Amount: p.Supply[0]}}
		}), "transport", "sink-range"},
		{"negative portion", transportWitness(func(p *transport.Problem, sol *transport.Solution) {
			sol.Assign[0] = []transport.Portion{{Sink: 0, Amount: p.Supply[0] + 1}, {Sink: 1, Amount: -1}}
		}), "transport", "non-negativity"},
		{"inadmissible sink", transportWitness(func(p *transport.Problem, sol *transport.Solution) {
			sol.Assign[2] = []transport.Portion{{Sink: 0, Amount: p.Supply[2]}}
		}), "transport", "admissibility"},
		{"source ships short", transportWitness(func(_ *transport.Problem, sol *transport.Solution) {
			sol.Assign[1][0].Amount /= 2
		}), "transport", "row-conservation"},
		{"sink over capacity", transportWitness(func(p *transport.Problem, sol *transport.Solution) {
			p.Capacity[sol.Assign[0][0].Sink] = 0
		}), "transport", "column-feasibility"},
		// The optimum ships source 0 to sink 0, source 1 to sink 1 and
		// source 2 to sink 2 at cost 6. The two plans below are feasible
		// but cost more.
		{"cheaper plan by a reassignment cycle", transportWitness(func(_ *transport.Problem, sol *transport.Solution) {
			// Sources 1 and 2 trade places across sinks 1 and 2 (cost 10).
			sol.Assign[1] = []transport.Portion{{Sink: 2, Amount: 1}}
			sol.Assign[2] = []transport.Portion{{Sink: 2, Amount: 2}, {Sink: 1, Amount: 1}}
		}), "transport", "optimality"},
		{"cheaper sink with slack", transportWitness(func(_ *transport.Problem, sol *transport.Solution) {
			// Half of source 0 moves to sink 1 while sink 0 keeps slack (cost 8).
			sol.Assign[0] = []transport.Portion{{Sink: 0, Amount: 1}, {Sink: 1, Amount: 1}}
		}), "transport", "optimality"},
	})
}

var chip = geom.Rect{Xlo: 0, Ylo: 0, Xhi: 16, Yhi: 16}

// partitioned builds a 16x16 chip with an inclusive movebound over its
// left half, 120 random movable cells (every fourth bound to the
// movebound) and one fixed cell, and partitions it on a 4x4 grid.
func partitioned(t *testing.T) (*netlist.Netlist, *grid.WindowRegions, *fbp.Result) {
	t.Helper()
	mbs, err := region.Normalize(chip, []region.Movebound{
		{Name: "L", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 8, Yhi: 16}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wr := grid.BuildWindowRegions(grid.MustNew(chip, 4, 4), region.Decompose(chip, mbs), nil, 1.0)
	rng := rand.New(rand.NewSource(7))
	n := netlist.New(chip, 1)
	for i := 0; i < 120; i++ {
		mb := netlist.NoMovebound
		if i%4 == 0 {
			mb = 0
		}
		id := n.AddCell(netlist.Cell{Width: 0.5 + rng.Float64(), Height: 1, Movebound: mb})
		n.SetPos(id, geom.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16})
	}
	fixed := n.AddCell(netlist.Cell{Width: 1, Height: 1, Fixed: true, Movebound: netlist.NoMovebound})
	n.SetPos(fixed, geom.Point{X: 12, Y: 12})
	for e := 0; e < 120; e++ {
		if i, j := rng.Intn(120), rng.Intn(120); i != j {
			n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: netlist.CellID(i)}, {Cell: netlist.CellID(j)}}})
		}
	}
	res, err := fbp.Partition(n, wr, fbp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n, wr, res
}

func TestPartitionCleanPasses(t *testing.T) {
	n, wr, res := partitioned(t)
	if err := (&certify.Checker{}).Partition(n, wr, res); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionViolations(t *testing.T) {
	// partitionWitness partitions the instance, lets corrupt tamper with
	// the netlist or the result, and checks.
	partitionWitness := func(corrupt func(t *testing.T, n *netlist.Netlist, wr *grid.WindowRegions, res *fbp.Result)) func(*testing.T, *certify.Checker) error {
		return func(t *testing.T, c *certify.Checker) error {
			n, wr, res := partitioned(t)
			corrupt(t, n, wr, res)
			return c.Partition(n, wr, res)
		}
	}
	const fixedCell, boundCell, freeCell = 120, 0, 1
	wantViolation(t, []witness{
		{"assignment list too short", partitionWitness(func(_ *testing.T, _ *netlist.Netlist, _ *grid.WindowRegions, res *fbp.Result) {
			res.CellRegion = res.CellRegion[:len(res.CellRegion)-1]
		}), "partition", "assignment-shape"},
		{"fixed cell assigned", partitionWitness(func(_ *testing.T, _ *netlist.Netlist, _ *grid.WindowRegions, res *fbp.Result) {
			res.CellRegion[fixedCell] = fbp.RegionRef{Window: 0, Index: 0}
		}), "partition", "fixed-unassigned"},
		{"window out of range", partitionWitness(func(_ *testing.T, _ *netlist.Netlist, wr *grid.WindowRegions, res *fbp.Result) {
			res.CellRegion[freeCell] = fbp.RegionRef{Window: int32(len(wr.PerWin)), Index: 0}
		}), "partition", "assignment-range"},
		{"movebound cell outside its movebound", partitionWitness(func(t *testing.T, _ *netlist.Netlist, wr *grid.WindowRegions, res *fbp.Result) {
			for w, regs := range wr.PerWin {
				for i := range regs {
					if !wr.Decomp.Admissible(0, regs[i].Region) {
						res.CellRegion[boundCell] = fbp.RegionRef{Window: int32(w), Index: int32(i)}
						return
					}
				}
			}
			t.Fatal("no region inadmissible for the movebound")
		}), "partition", "admissibility"},
		{"cell outside its region", partitionWitness(func(_ *testing.T, n *netlist.Netlist, _ *grid.WindowRegions, _ *fbp.Result) {
			// Mirror the cell through the chip center: a different window.
			p := n.Pos(freeCell)
			n.SetPos(freeCell, geom.Point{X: 16 - p.X, Y: 16 - p.Y})
		}), "partition", "containment"},
		{"region overloaded", partitionWitness(func(_ *testing.T, n *netlist.Netlist, wr *grid.WindowRegions, res *fbp.Result) {
			// Pile every unbound cell into the free cell's region.
			ref := res.CellRegion[freeCell]
			at := wr.PerWin[ref.Window][ref.Index].Rects[0].Center()
			for i := range n.Cells {
				if c := &n.Cells[i]; !c.Fixed && c.Movebound == netlist.NoMovebound {
					res.CellRegion[i] = ref
					n.SetPos(netlist.CellID(i), at)
				}
			}
		}), "partition", "capacity-feasibility"},
	})
}

func TestPositionsViolations(t *testing.T) {
	positionsWitness := func(x float64) func(*testing.T, *certify.Checker) error {
		return func(t *testing.T, c *certify.Checker) error {
			n, _, _ := partitioned(t)
			if err := c.Positions(n); err != nil {
				t.Fatalf("clean positions: %v", err)
			}
			n.X[5] = x
			return c.Positions(n)
		}
	}
	wantViolation(t, []witness{
		{"NaN coordinate", positionsWitness(math.NaN()), "positions", "finite"},
		{"infinite coordinate", positionsWitness(math.Inf(1)), "positions", "finite"},
		{"outside the chip", positionsWitness(100), "positions", "inside-chip"},
	})
}

// placed runs the full placer on a small generated chip and returns the
// netlist with the report as the final certificate sees it.
func placed(t *testing.T) (*netlist.Netlist, certify.Reported) {
	t.Helper()
	inst, err := gen.Chip(gen.ChipSpec{NumCells: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Movebounds) != 0 {
		t.Fatal("generated chip has movebounds; the checks below pass none")
	}
	rep, err := placer.Place(inst.N, placer.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return inst.N, certify.Reported{
		HPWL:          rep.HPWL,
		Violations:    rep.Violations,
		Overlaps:      rep.Overlaps,
		Legalized:     true,
		TargetDensity: 0.97,
	}
}

func TestPlacementCleanPasses(t *testing.T) {
	n, rep := placed(t)
	if err := (&certify.Checker{}).Placement(n, nil, rep); err != nil {
		t.Fatal(err)
	}
}

// The "density-sane" invariant has no witness: Positions runs first and
// rejects non-finite coordinates, and on finite ones the recomputed
// density penalty is finite and non-negative.
func TestPlacementViolations(t *testing.T) {
	// placementWitness places the chip, lets corrupt tamper with the
	// netlist or the report, and checks.
	placementWitness := func(corrupt func(n *netlist.Netlist, rep *certify.Reported)) func(*testing.T, *certify.Checker) error {
		return func(t *testing.T, c *certify.Checker) error {
			n, rep := placed(t)
			corrupt(n, &rep)
			return c.Placement(n, nil, rep)
		}
	}
	wantViolation(t, []witness{
		{"corrupt position", placementWitness(func(n *netlist.Netlist, _ *certify.Reported) {
			n.Y[0] = math.NaN()
		}), "positions", "finite"},
		{"HPWL misreported", placementWitness(func(_ *netlist.Netlist, rep *certify.Reported) {
			rep.HPWL *= 1.01
		}), "placement", "hpwl-match"},
		{"overlaps misreported", placementWitness(func(_ *netlist.Netlist, rep *certify.Reported) {
			rep.Overlaps++
		}), "placement", "overlap-match"},
		{"overlaps after legalization", placementWitness(func(n *netlist.Netlist, rep *certify.Reported) {
			// Stack two movable cells, then report the result truthfully.
			var movable []netlist.CellID
			for i := range n.Cells {
				if !n.Cells[i].Fixed {
					movable = append(movable, netlist.CellID(i))
				}
			}
			n.SetPos(movable[1], n.Pos(movable[0]))
			rep.HPWL = n.HPWL()
			rep.Overlaps = legalize.VerifyNoOverlaps(n)
		}), "placement", "legalized-no-overlaps"},
		{"violations misreported", placementWitness(func(_ *netlist.Netlist, rep *certify.Reported) {
			rep.Violations++
		}), "placement", "violation-match"},
	})
}
