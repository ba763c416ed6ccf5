package serve

import (
	"math"
	"time"

	"fbplace/internal/netlist"
	"fbplace/internal/placer"
)

// Estimate is a job's predicted resource footprint, priced at admission
// from the instance size and the planned refinement schedule — before the
// job consumes anything. The scheduler uses it three ways: to refuse jobs
// that could never fit the process memory budget, to gate job starts so
// the sum of running footprints stays under that budget, and to quote
// Retry-After from the predicted wall time of the queue.
type Estimate struct {
	// Cells and Pins are the instance size, Levels the planned refinement
	// level count (placer.PlannedLevels).
	Cells, Pins, Levels int
	// PeakBytes is the predicted peak process-heap contribution.
	PeakBytes int64
	// Wall is the predicted single-worker wall time.
	Wall time.Duration
}

// Calibration, measured on gen.Chip instances (the LoadMix size ladder),
// single placement worker, linux/amd64 (2-vCPU Xeon VM); wall is the median
// of three runs (two at 20000 cells):
//
//	cells   pins    levels  wall     steady live heap
//	300     1058    2       12ms     ~3.0 MB
//	1200    4017    3       157ms    ~3.4 MB
//	5000    15925   4       0.79s    ~6.0 MB
//	20000   62667   5       4.4s     ~19.1 MB
//
// Peak memory is modeled as base + per-cell + per-pin, sized about 3x the
// measured steady live heap: the QP/flow phases churn transient slices and
// the process must absorb the allocation spike between GC cycles, so the
// admission price is deliberately the conservative envelope, not the
// average. Wall time is a per-(cell x level) cost, interpolated between
// the measured points on a log(cells) axis. It roughly doubles from 300 to
// 1200 cells and stays about flat above.
const (
	estBaseBytes    = 4 << 20
	estBytesPerCell = 2048
	estBytesPerPin  = 256
)

// wallCalib holds the measured per-(cell x level) microsecond costs.
var wallCalib = []struct {
	cells float64
	us    float64
}{
	{300, 19.8},
	{1200, 43.7},
	{5000, 39.4},
	{20000, 43.8},
}

// usPerCellLevel interpolates the calibration table piecewise-linearly in
// log(cells), clamped to the measured range at both ends.
func usPerCellLevel(cells float64) float64 {
	if cells <= wallCalib[0].cells {
		return wallCalib[0].us
	}
	last := wallCalib[len(wallCalib)-1]
	if cells >= last.cells {
		return last.us
	}
	for i := 1; i < len(wallCalib); i++ {
		lo, hi := wallCalib[i-1], wallCalib[i]
		if cells > hi.cells {
			continue
		}
		t := (math.Log(cells) - math.Log(lo.cells)) / (math.Log(hi.cells) - math.Log(lo.cells))
		return lo.us + t*(hi.us-lo.us)
	}
	return last.us
}

// estimateJob prices one job from its loaded instance and compiled config.
func estimateJob(n *netlist.Netlist, cfg placer.Config) Estimate {
	cells := len(n.X)
	pins := 0
	for i := range n.Nets {
		pins += len(n.Nets[i].Pins)
	}
	levels := placer.PlannedLevels(n, cfg)
	wallUS := usPerCellLevel(float64(cells)) * float64(cells) * float64(levels)
	return Estimate{
		Cells:     cells,
		Pins:      pins,
		Levels:    levels,
		PeakBytes: estBaseBytes + estBytesPerCell*int64(cells) + estBytesPerPin*int64(pins),
		Wall:      time.Duration(wallUS) * time.Microsecond,
	}
}
