package fbp

import (
	"testing"

	"fbplace/internal/gen"
	"fbplace/internal/grid"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// BenchmarkNSPlacement times the global MinCostFlow of a real placement
// level: the 1024-window (32x32) model of the Erhard-like Table-I chip
// after a few RQL spreading rounds, the model the incremental benchmark
// workload solves. Generation, spreading and each model build run outside
// the timer, so ns/op is Model.Solve (the network simplex) alone.
func BenchmarkNSPlacement(b *testing.B) {
	inst, err := gen.Chip(gen.ErhardLike(0.002))
	if err != nil {
		b.Fatal(err)
	}
	n := inst.N
	mbs, err := region.Normalize(n.Area, inst.Movebounds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rql.Place(n, rql.Config{MaxIters: 4, Movebounds: mbs}); err != nil {
		b.Fatal(err)
	}
	g, err := grid.New(n.Area, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	wr := grid.BuildWindowRegions(g, region.Decompose(n.Area, mbs), n.FixedRects(), 0.97)
	assign := g.AssignCells(n)
	pivots := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := BuildModel(n, wr, assign)
		b.StartTimer()
		if err := m.Solve(); err != nil {
			b.Fatal(err)
		}
		pivots = m.Stats.NSPivots
	}
	b.ReportMetric(float64(pivots), "pivots")
}
