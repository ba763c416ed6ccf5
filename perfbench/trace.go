package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/degrade"
	"fbplace/internal/fbp"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
	"fbplace/internal/qp"
	"fbplace/internal/region"
)

// levelWindows are the window counts of the grid levels the workloads
// run; every per-level metric is reported for each of them (0 where a
// workload does not run that level).
var levelWindows = []int{4, 16, 64, 256, 1024}

// workCounters are the obs counters that must repeat exactly across two
// traced runs of one workload and seed.
var workCounters = []string{
	"ns.pivots", "transport.solves", "transport.sources", "transport.splits",
	"realize.pairpass", "fbp.waves", "fbp.units", "cg.iters", "cg.solves",
	"legalize.spilled", "legalize.failed",
}

// span is one timed call of the traced pipeline. Spans nest strictly (the
// pipeline is sequential), so parents are tracked with a stack.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // offset from the run's start
	Dur    float64 `json:"dur_s"`
	Self   float64 `json:"self_s"` // Dur minus the time covered by children
}

type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[top].Dur = time.Since(t.t0).Seconds() - t.spans[top].Start
}

// call times f as a span named name.
func (t *tracer) call(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// finish closes any spans an error left open and computes self times.
func (t *tracer) finish() {
	for len(t.stack) > 0 {
		t.end()
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].Dur
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.Dur
		}
	}
}

// sum totals the durations of the spans called name, restricted to spans
// whose parent is called under when under is not empty.
func (t *tracer) sum(name, under string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name && (under == "" || (s.Parent >= 0 && t.spans[s.Parent].Name == under)) {
			total += s.Dur
		}
	}
	return total
}

// tracedRun is the outcome of one traced placement.
type tracedRun struct {
	tr       *tracer
	wall     float64
	hash     uint64
	counters map[string]float64
	levels   map[int]fbp.Stats // by window count
	qpCG     int64             // top-level CG iterations
	degrades int
}

// levelName names the span of the grid level with w windows.
func levelName(w int) string { return fmt.Sprintf("level.w%d", w) }

// tracedPlace runs the pipeline of placer.Place for the instance's
// configuration through the layers' public functions, timing each call.
// Its final positions must equal placer.Place's bit for bit (checked by
// the caller): the per-layer numbers describe the program only while they
// do.
func tracedPlace(in *instance) (*tracedRun, error) {
	ctx := context.Background()
	n := in.base.Clone()
	runtime.GC()
	tr := newTracer()
	rec := obs.New(nil)
	dl := degrade.New(rec)
	var qs qp.SolveStats
	qopt := in.cfg.QP
	qopt.Obs, qopt.Stats, qopt.Ctx, qopt.Degrade, qopt.Workspace = rec, &qs, ctx, dl, qp.NewWorkspace()
	run := &tracedRun{tr: tr, levels: map[int]fbp.Stats{}}

	t0 := time.Now()
	tr.begin("place")
	err := tracedPipeline(ctx, n, in.cfg, tr, rec, dl, qopt, run.levels)
	run.wall = time.Since(t0).Seconds()
	tr.finish()
	if err != nil {
		return nil, err
	}
	run.hash = positionHash(n)
	run.counters = rec.Counters()
	_, run.qpCG = qs.Snapshot()
	run.degrades = len(dl.Events())
	return run, nil
}

// tracedPipeline is placer.Place's pipeline for cfg, one span per layer
// call. It records each level's fbp.Stats in stats, by window count.
func tracedPipeline(ctx context.Context, n *netlist.Netlist, cfg placer.Config, tr *tracer, rec *obs.Recorder, dl *degrade.Log, qopt qp.Options, stats map[int]fbp.Stats) error {
	var mbs []region.Movebound
	var decomp *region.Decomposition
	var blockages geom.RectSet
	err := tr.call("region", func() error {
		var err error
		if mbs, err = region.Normalize(n.Area, cfg.Movebounds); err != nil {
			return err
		}
		if err := n.Validate(len(mbs)); err != nil {
			return err
		}
		decomp = region.Decompose(n.Area, mbs)
		blockages = n.FixedRects()
		caps := decomp.Capacities(blockages, targetDensity)
		if rep := region.CheckFeasibility(n, decomp, caps); !rep.Feasible {
			return fmt.Errorf("instance infeasible: %.1f cell area vs %.1f routable capacity", rep.TotalSize, rep.Routed)
		}
		return nil
	})
	if err != nil {
		return err
	}

	levels := placer.PlannedLevels(n, cfg)
	startLevel := 1
	if cfg.KeepPlacement {
		startLevel = levels
	} else if err := tr.call("qp.initial", func() error { return qp.Solve(n, nil, qopt) }); err != nil {
		return fmt.Errorf("initial QP: %w", err)
	}
	checker := &certify.Checker{Ctx: ctx}
	movable := n.MovableIDs()
	anchors := make([]qp.Anchor, len(movable))
	for lv := startLevel; lv <= levels; lv++ {
		k := 1 << lv
		tr.begin(levelName(k * k))
		checker.Level = lv
		var wr *grid.WindowRegions
		var model *fbp.Model
		err := tr.call("fbp.build", func() error {
			g, err := grid.New(n.Area, k, k)
			if err != nil {
				return err
			}
			wr = grid.BuildWindowRegions(g, decomp, blockages, targetDensity)
			model = fbp.BuildModel(n, wr, g.AssignCells(n))
			model.Obs, model.Degrade, model.G.Ctx = rec, dl, ctx
			return nil
		})
		if err != nil {
			return fmt.Errorf("level %d build: %w", lv, err)
		}
		if err := tr.call("flow.mcf", model.Solve); err != nil {
			return fmt.Errorf("level %d MCF: %w", lv, err)
		}
		if err := tr.call("certify.flow", func() error { return checker.Flow(model.G) }); err != nil {
			return err
		}
		fcfg := fbp.DefaultConfig()
		fcfg.QP, fcfg.Workers, fcfg.Obs, fcfg.Ctx, fcfg.Degrade = qopt, cfg.Workers, rec, ctx, dl
		var res *fbp.Result
		err = tr.call("fbp.realize", func() error {
			var err error
			res, err = fbp.Realize(model, fcfg)
			return err
		})
		if err != nil {
			return fmt.Errorf("level %d realize: %w", lv, err)
		}
		stats[k*k] = res.Stats
		if err := tr.call("certify.partition", func() error { return checker.Partition(n, wr, res) }); err != nil {
			return err
		}
		// The anchored QP of placer.globalLoop: every movable cell is tied
		// to its partitioned position with a level-scaled weight.
		w := 0.05 * float64(int(1)<<lv) / math.Max(n.Area.Width(), n.Area.Height()) * 64
		for i, id := range movable {
			anchors[i] = qp.Anchor{Cell: id, Target: n.Pos(id), Weight: w}
		}
		if err := tr.call("qp.anchored", func() error { return qp.Solve(n, anchors, qopt) }); err != nil {
			return fmt.Errorf("level %d QP: %w", lv, err)
		}
		tr.end()
	}

	err = tr.call("legalize", func() error {
		lopt := cfg.Legalize
		lopt.Obs = rec
		var err error
		if len(mbs) > 0 {
			_, err = legalize.LegalizeWithMovebounds(n, decomp, lopt)
		} else {
			_, err = legalize.Legalize(n, lopt)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("legalize: %w", err)
	}
	overlaps := legalize.VerifyNoOverlaps(n)
	hpwl := n.HPWL()
	violations := region.CheckLegal(n, mbs)
	return tr.call("certify.final", func() error {
		return checkPlacement(n, mbs, hpwl, violations, overlaps)
	})
}

// runTraced is the per-layer run: one untraced placer.Place (the parity
// reference and the overhead baseline), then two traced runs whose work
// counters must agree exactly.
func runTraced(w *workload, seed int64, outDir string) (result, error) {
	in, err := w.setup(seed)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	ref := placeOnce(in)
	res.Attempted++
	if ref.err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s reference placement failed: %v\n", w.name, ref.err)
	}
	var runs []*tracedRun
	for i := 0; i < 2; i++ {
		res.Attempted++
		r, err := tracedPlace(in)
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s traced placement %d failed: %v\n", w.name, i+1, err)
			continue
		}
		runs = append(runs, r)
	}
	if len(runs) == 2 {
		if diff := counterDiff(runs[0], runs[1]); diff != "" {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s work counters differ between traced runs: %s\n", w.name, diff)
		}
	}
	res.Correct = res.Failed == 0
	if len(runs) == 0 {
		return res, errors.New("no traced run completed")
	}

	parity := 1.0
	for _, r := range runs {
		if r.hash != ref.hash {
			parity = 0
			fmt.Fprintf(os.Stderr, "perfbench: %s traced positions differ from placer.Place (hash %016x vs %016x): per-layer numbers are invalid\n", w.name, r.hash, ref.hash)
		}
	}
	layerMetrics(res.Metrics, runs)
	walls := make([]float64, len(runs))
	for i, r := range runs {
		walls[i] = r.wall
	}
	res.Metrics["trace.parity"] = metric{parity, "bool"}
	res.Metrics["trace.wall_s"] = metric{median(walls), "s"}
	res.Metrics["trace.overhead_s"] = metric{median(walls) - ref.wall, "s"}

	if err := writeSpans(outDir, w.name, seed, runs[0].tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	printLayerSplit(w.name, runs[0])
	return res, nil
}

// counterDiff lists the work counts that differ between two traced runs.
func counterDiff(a, b *tracedRun) string {
	var diffs []string
	for _, c := range workCounters {
		if a.counters[c] != b.counters[c] {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", c, a.counters[c], b.counters[c]))
		}
	}
	if a.qpCG != b.qpCG {
		diffs = append(diffs, fmt.Sprintf("qp.cg_iters %d vs %d", a.qpCG, b.qpCG))
	}
	for _, wn := range levelWindows {
		sa, sb := a.levels[wn], b.levels[wn]
		if sa.NSPivots != sb.NSPivots || sa.LocalCGIters != sb.LocalCGIters || sa.Waves != sb.Waves {
			diffs = append(diffs, fmt.Sprintf("level w%d stats %+v vs %+v", wn, sa, sb))
		}
	}
	return strings.Join(diffs, "; ")
}

// layerMetrics fills the per-layer metrics: times are the median over the
// traced runs, counts come from the first (they are checked to agree).
func layerMetrics(m map[string]metric, runs []*tracedRun) {
	secs := func(name string, f func(*tracedRun) float64) {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		m[name] = metric{median(v), "s"}
	}
	r0 := runs[0]
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	secs("region_s", func(r *tracedRun) float64 { return r.tr.sum("region", "") })
	secs("qp.initial_s", func(r *tracedRun) float64 { return r.tr.sum("qp.initial", "") })
	secs("qp.anchored_s", func(r *tracedRun) float64 { return r.tr.sum("qp.anchored", "") })
	secs("fbp.build_s", func(r *tracedRun) float64 { return r.tr.sum("fbp.build", "") })
	secs("legalize_s", func(r *tracedRun) float64 { return r.tr.sum("legalize", "") })
	secs("certify.level_s", func(r *tracedRun) float64 {
		return r.tr.sum("certify.flow", "") + r.tr.sum("certify.partition", "")
	})
	secs("certify.final_s", func(r *tracedRun) float64 { return r.tr.sum("certify.final", "") })
	var nodes, arcs, localCG float64
	for _, wn := range levelWindows {
		lvl := levelName(wn)
		secs(fmt.Sprintf("flow.mcf_s.w%d", wn), func(r *tracedRun) float64 { return r.tr.sum("flow.mcf", lvl) })
		secs(fmt.Sprintf("fbp.realize_s.w%d", wn), func(r *tracedRun) float64 { return r.tr.sum("fbp.realize", lvl) })
		st := r0.levels[wn]
		count(fmt.Sprintf("flow.ns_pivots.w%d", wn), float64(st.NSPivots))
		nodes += float64(st.NumNodes)
		arcs += float64(st.NumArcs)
		localCG += float64(st.LocalCGIters)
	}
	count("flow.nodes", nodes)
	count("flow.arcs", arcs)
	count("qp.cg_iters", float64(r0.qpCG))
	count("qp.local_cg_iters", localCG)
	for _, c := range []string{"transport.solves", "transport.sources", "transport.splits",
		"realize.pairpass", "fbp.waves", "fbp.units", "legalize.spilled", "legalize.failed"} {
		count(c, r0.counters[c])
	}
	count("degrade.events", float64(r0.degrades))
}

// writeSpans writes the first traced run's spans, with self times, as one
// JSON document.
func writeSpans(dir, workload string, seed int64, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// printLayerSplit prints each layer's share of the traced wall time to
// standard error: the layer split NOTES.md cites.
func printLayerSplit(workload string, r *tracedRun) {
	type row struct {
		name string
		dur  float64
	}
	byName := map[string]float64{}
	for _, s := range r.tr.spans {
		name := s.Name
		if s.Parent >= 0 && strings.HasPrefix(r.tr.spans[s.Parent].Name, "level.") {
			name = name + "." + strings.TrimPrefix(r.tr.spans[s.Parent].Name, "level.")
		}
		byName[name] += s.Self
	}
	rows := make([]row, 0, len(byName))
	for k, v := range byName {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dur > rows[j].dur })
	fmt.Fprintf(os.Stderr, "perfbench: %s traced wall %.3fs, self time by layer:\n", workload, r.wall)
	for _, x := range rows {
		fmt.Fprintf(os.Stderr, "  %-24s %9.3fs %6.1f%%\n", x.name, x.dur, 100*x.dur/r.wall)
	}
}
