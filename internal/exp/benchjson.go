package exp

import (
	"encoding/json"
	"os"
	"time"

	"fbplace/internal/gen"
)

// BenchRecord is the machine-readable baseline cmd/fbpbench writes next to
// its tables (BENCH_baseline.json by default): per-table HPWL and phase
// times, for regression diffing across commits.
type BenchRecord struct {
	Scale  float64               `json:"scale"`
	Tables map[string]BenchTable `json:"tables"`
}

// BenchTable is one table's numbers inside a BenchRecord.
type BenchTable struct {
	// Chip names the single instance of a level sweep (Table I).
	Chip  string `json:"chip,omitempty"`
	Cells int    `json:"cells,omitempty"`
	// Chips carries the per-chip comparison tables (II, IV, V, VII-style).
	Chips []BenchChip `json:"chips,omitempty"`
	// Levels carries the per-grid-level FBP instance table (I).
	Levels []BenchLevel `json:"levels,omitempty"`
	// TotalHPWL sums the FBP HPWL over all chips of the table.
	TotalHPWL float64 `json:"total_hpwl,omitempty"`
	// GlobalMS and LegalMS sum the FBP phase times over all chips.
	GlobalMS float64 `json:"global_ms,omitempty"`
	LegalMS  float64 `json:"legal_ms,omitempty"`
}

// BenchChip is one chip's numbers inside a BenchTable.
type BenchChip struct {
	Chip       string  `json:"chip"`
	Cells      int     `json:"cells"`
	HPWL       float64 `json:"hpwl"`
	BaseHPWL   float64 `json:"base_hpwl,omitempty"`
	GlobalMS   float64 `json:"global_ms"`
	LegalMS    float64 `json:"legal_ms"`
	TotalMS    float64 `json:"total_ms"`
	Violations int     `json:"violations"`
}

// BenchLevel is one grid level of the Table-I-style instance sweep.
type BenchLevel struct {
	Nodes     int     `json:"nodes"`
	Arcs      int     `json:"arcs"`
	Windows   int     `json:"windows"`
	Regions   int     `json:"regions"`
	FlowMS    float64 `json:"flow_ms"`
	RealizeMS float64 `json:"realize_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchFromCompare converts comparison rows into a bench table.
func BenchFromCompare(rows []CompareRow) BenchTable {
	t := BenchTable{}
	for _, r := range rows {
		t.Chips = append(t.Chips, BenchChip{
			Chip: r.Chip, Cells: r.Cells,
			HPWL: r.FBPHPWL, BaseHPWL: r.BaseHPWL,
			GlobalMS: ms(r.FBPGlobal), LegalMS: ms(r.FBPLegal),
			TotalMS: ms(r.FBPTime), Violations: r.FBPViol,
		})
		t.TotalHPWL += r.FBPHPWL
		t.GlobalMS += ms(r.FBPGlobal)
		t.LegalMS += ms(r.FBPLegal)
	}
	return t
}

// BenchFromTable1 converts the Table-I level sweep into a bench table.
func BenchFromTable1(spec gen.ChipSpec, rows []T1Row) BenchTable {
	t := BenchTable{Chip: spec.Name, Cells: spec.NumCells}
	for _, r := range rows {
		t.Levels = append(t.Levels, BenchLevel{
			Nodes: r.Nodes, Arcs: r.Arcs,
			Windows: r.Windows, Regions: r.Regions,
			FlowMS: ms(r.FlowTime), RealizeMS: ms(r.RealizeTime),
		})
	}
	return t
}

// BenchFromTable7 converts the ISPD-style rows into a bench table.
func BenchFromTable7(rows []T7Row) BenchTable {
	t := BenchTable{}
	for _, r := range rows {
		t.Chips = append(t.Chips, BenchChip{
			Chip: r.Chip, HPWL: r.FBP.HPWL, BaseHPWL: r.KW.HPWL,
			TotalMS: ms(r.FBPTime),
		})
		t.TotalHPWL += r.FBP.HPWL
	}
	return t
}

// WriteBench writes the record as indented JSON to path.
func WriteBench(path string, rec BenchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
