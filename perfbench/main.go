// Command perfbench is the repository benchmark. It generates one instance
// from a workload name and a seed, places it with placer.Place in a closed
// loop (one client, one placement at a time) for a fixed measuring time,
// checks every result after its timer stops, and prints one JSON result
// object as the last line of standard output.
//
// With -trace 0 it reports the end-to-end metrics (wall and CPU time of
// placer.Place, final HPWL, peak RSS, set-up time, success rate). With
// -trace 1 it instead drives the same pipeline layer by layer through the
// packages' public functions, times every call with its own in-memory
// spans, and reports the per-layer metrics; see trace.go.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload flat -seed 0 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/gen"
	"fbplace/internal/netlist"
	"fbplace/internal/placer"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// defaultSeed keeps the generator's cell and net order (see relabel).
// Seed 2011 is held out for confirming performance claims; see NOTES.md.
const defaultSeed = 0

// targetDensity is placer.Config's default TargetDensity, which every
// workload uses.
const targetDensity = 0.97

// A run sets its instance up at least minSetupReps times and until
// setupSeconds have passed; setup_s is the median.
const (
	minSetupReps = 5
	setupSeconds = 1.0
)

// workload describes one benchmark input: how to generate it and how to
// configure the placer for it.
type workload struct {
	name string
	// minPlacements is the fewest timed placements a -trace 0 run makes,
	// however short -seconds is, so that medians rest on several samples.
	minPlacements int
	spec          func() gen.ChipSpec
	// spread, when set, moves the generated cells before placement as part
	// of set-up (the incremental workload's RQL pre-placement).
	spread bool
	config func(inst *gen.Instance) placer.Config
}

// workloads are the benchmark inputs; NOTES.md records why each was
// chosen and the layer split it had when it was.
var workloads = []workload{
	{
		// No movebounds: many transport sources and few sinks, regions
		// equal windows; the top-level QP and plain legalization have their
		// largest share here.
		name:          "flat",
		minPlacements: 2,
		spec: func() gen.ChipSpec {
			return gen.ChipSpec{Name: "flat", NumCells: 20000, NumMacros: 2, Utilization: 0.55}
		},
		config: func(*gen.Instance) placer.Config { return placer.Config{} },
	},
	{
		// The paper's Table-I chip (12 inclusive movebounds holding ~98% of
		// the cells), pre-spread by RQL and re-partitioned at the finest
		// level only (§IV incremental use): the global MCF dominates.
		name:          "incremental",
		minPlacements: 4,
		spec:          func() gen.ChipSpec { return gen.ErhardLike(0.002) },
		spread:        true,
		config: func(inst *gen.Instance) placer.Config {
			return placer.Config{Movebounds: inst.Movebounds, KeepPlacement: true, MaxLevels: 5}
		},
	},
}

// instance is a generated, set-up input: the netlist every placement
// starts from (cloned per placement, never placed itself), its placer
// configuration and the normalized movebounds the checks use.
type instance struct {
	base *netlist.Netlist
	cfg  placer.Config
	mbs  []region.Movebound
}

// setup generates the workload's instance from seed.
func (w *workload) setup(seed int64) (*instance, error) {
	inst, err := gen.Chip(w.spec())
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	inst.N = relabel(inst.N, seed)
	mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		return nil, fmt.Errorf("normalize %s movebounds: %w", w.name, err)
	}
	if w.spread {
		// The pre-placement exp.Table1 uses: a few RQL spreading rounds
		// give the partitioning a realistic, already spread start.
		if _, err := rql.Place(inst.N, rql.Config{MaxIters: 4, Movebounds: mbs}); err != nil {
			return nil, fmt.Errorf("spread %s: %w", w.name, err)
		}
	}
	return &instance{base: inst.N, cfg: w.config(inst), mbs: mbs}, nil
}

// relabelBlock is the span of consecutive cell IDs within which relabel
// shuffles cells. The generator numbers cells along a locality lattice;
// shuffling only inside short runs keeps that ID locality, and with it the
// memory behaviour of the generated chip.
const relabelBlock = 64

// relabel returns n with its nets in a seed-chosen order and its cells
// shuffled within runs of relabelBlock IDs. The circuit is the same, so
// the shapes a workload was chosen for hold on every seed; tie-breaks and
// floating-point summation orders differ. Seed 0 returns n unchanged.
func relabel(n *netlist.Netlist, seed int64) *netlist.Netlist {
	if seed == 0 {
		return n
	}
	rng := rand.New(rand.NewSource(seed))
	nc := n.NumCells()
	perm := make([]int, nc) // new ID -> old ID
	for i := range perm {
		perm[i] = i
	}
	for lo := 0; lo < nc; lo += relabelBlock {
		hi := min(lo+relabelBlock, nc)
		rng.Shuffle(hi-lo, func(i, j int) { perm[lo+i], perm[lo+j] = perm[lo+j], perm[lo+i] })
	}
	newID := make([]netlist.CellID, nc)
	out := &netlist.Netlist{
		Cells:     make([]netlist.Cell, nc),
		Nets:      make([]netlist.Net, len(n.Nets)),
		X:         make([]float64, nc),
		Y:         make([]float64, nc),
		Area:      n.Area,
		RowHeight: n.RowHeight,
	}
	for to, from := range perm {
		out.Cells[to], out.X[to], out.Y[to] = n.Cells[from], n.X[from], n.Y[from]
		newID[from] = netlist.CellID(to)
	}
	for to, from := range rng.Perm(len(n.Nets)) {
		net := n.Nets[from]
		pins := make([]netlist.Pin, len(net.Pins))
		for i, p := range net.Pins {
			if !p.IsPad() {
				p.Cell = newID[p.Cell]
			}
			pins[i] = p
		}
		out.Nets[to] = netlist.Net{Name: net.Name, Weight: net.Weight, Pins: pins}
	}
	return out
}

// outcome is one checked placement.
type outcome struct {
	wall, cpu float64 // seconds
	hpwl      float64
	hash      uint64 // of the final X/Y bits
	err       error  // placement error or failed check
}

// placeOnce places a fresh clone of the instance and checks the result
// after the timers stop.
func placeOnce(in *instance) outcome {
	n := in.base.Clone()
	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	rep, err := placer.Place(n, in.cfg)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	o := outcome{wall: wall, cpu: cpu, hash: positionHash(n)}
	if err != nil {
		o.err = fmt.Errorf("place: %w", err)
		return o
	}
	o.hpwl = rep.HPWL
	o.err = checkPlacement(n, in.mbs, rep.HPWL, rep.Violations, rep.Overlaps)
	return o
}

// checkPlacement requires a legal placement: zero movebound violations,
// zero overlaps, and a report the independent certifier agrees with.
func checkPlacement(n *netlist.Netlist, mbs []region.Movebound, hpwl float64, violations, overlaps int) error {
	if violations != 0 || overlaps != 0 {
		return fmt.Errorf("%d movebound violations, %d overlaps", violations, overlaps)
	}
	chk := &certify.Checker{Level: -1}
	return chk.Placement(n, mbs, certify.Reported{
		HPWL:          hpwl,
		Violations:    violations,
		Overlaps:      overlaps,
		Legalized:     true,
		TargetDensity: targetDensity,
	})
}

// positionHash is FNV-1a over the bits of every X then every Y.
func positionHash(n *netlist.Netlist) uint64 {
	h := uint64(14695981039346656037)
	for _, vs := range [][]float64{n.X, n.Y} {
		for _, v := range vs {
			b := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				h ^= b & 0xff
				h *= 1099511628211
				b >>= 8
			}
		}
	}
	return h
}

// rusage is the process's resource usage. Getrusage only fails for a bad
// pointer or who argument, so its error is dropped.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: flat or incremental")
	seed := flag.Int64("seed", defaultSeed, "instance seed")
	seconds := flag.Float64("seconds", 20, "measuring time of a -trace 0 run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	outDir := flag.String("outdir", ".bench_build/traces", "directory for the traced run's span file")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		os.Exit(2)
	}

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *outDir)
	} else {
		res, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setupTimed sets the instance up repeatedly and returns the last
// instance with the median set-up time.
func setupTimed(w *workload, seed int64) (*instance, float64, error) {
	var in *instance
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || time.Since(start).Seconds() < setupSeconds {
		in = nil // let the collection free the previous instance
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = w.setup(seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// runTimed is the end-to-end run: placements in a closed loop until the
// measuring time is over, each checked, with HPWL required to repeat
// exactly.
func runTimed(w *workload, seed int64, seconds float64) (result, error) {
	in, setupS, err := setupTimed(w, seed)
	if err != nil {
		return result{}, err
	}
	var walls, cpus []float64
	res := result{Metrics: map[string]metric{}}
	var first *outcome // the first successful placement
	start := time.Now()
	for res.Attempted < w.minPlacements || time.Since(start).Seconds() < seconds {
		o := placeOnce(in)
		res.Attempted++
		walls = append(walls, o.wall)
		cpus = append(cpus, o.cpu)
		switch {
		case o.err != nil:
		case first == nil:
			first = &o
		case o.hpwl != first.hpwl || o.hash != first.hash:
			o.err = fmt.Errorf("nondeterministic: hpwl %v hash %016x, first placement hpwl %v hash %016x", o.hpwl, o.hash, first.hpwl, first.hash)
		}
		if o.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s placement %d failed: %v\n", w.name, res.Attempted, o.err)
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics["place_s"] = metric{median(walls), "s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	hpwl := 0.0 // no successful placement
	if first != nil {
		hpwl = first.hpwl
	}
	res.Metrics["hpwl"] = metric{hpwl, "dbu"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	res.Metrics["success_rate"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d placements, walls %v\n", w.name, seed, res.Attempted, walls)
	return res, nil
}
