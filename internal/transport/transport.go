// Package transport solves the (unbalanced) Hitchcock transportation
// problems arising in partitioning (paper §III): ship cell area from
// sources (cells) to sinks (regions and temporary transit regions) at
// minimum total cost, where inadmissible pairs (movebound does not cover
// the region) are simply absent from the arc lists.
//
// Two engines are provided:
//
//   - Reference: successive shortest paths on the full bipartite network
//     (flow.MinCostFlow). Exact, simple, used for small instances and as
//     the test oracle.
//   - Condensed: the production engine, Brenner's fast transportation
//     algorithm [4]. It starts from the optimal pseudoflow that sends every
//     source to its cheapest admissible sink and then cancels sink
//     overloads along shortest paths in a condensed graph whose nodes are
//     the sinks only. Each condensed arc a->b is the cheapest reassignment
//     of any source currently at a to b, kept in a lazily deleted heap per
//     sink pair. Dijkstra on weights reduced by sink potentials finds each
//     path, so an augmentation costs O(k^2 + moved sources * log n) for k
//     sinks, independent of the number of cells.
//
// Solutions are fractional in general but almost integral: at most k-1
// sources are split (a vertex of the transportation polytope). Rounded()
// maps every split source to its majority sink.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/obs"
)

// Injection points: condensedFault makes the production engine fail (the
// fallback must switch to the reference engine and record a degradation);
// referenceFault makes the reference engine fail too, exhausting the chain
// so the caller receives a structured error.
var (
	condensedFault = faultsim.Register("transport.condensed.fail",
		"condensed-sink transportation engine fails at entry")
	referenceFault = faultsim.Register("transport.reference.fail",
		"reference (successive shortest path) transportation engine fails at entry")
)

// Arc is an admissible (source, sink) pair with its movement cost.
type Arc struct {
	Sink int
	Cost float64
}

// Problem is a transportation instance. Sources ship their full Supply;
// sinks accept at most Capacity. Total supply must not exceed the total
// capacity reachable by each subset of sources (otherwise Solve returns
// ErrInfeasible).
type Problem struct {
	Supply   []float64 // per source, > 0
	Capacity []float64 // per sink, >= 0
	Arcs     [][]Arc   // Arcs[i] lists admissible sinks of source i
	// Obs, when non-nil, records the counters "transport.solves",
	// "transport.sources", "transport.augments" (condensed-engine
	// augmentations) and "transport.splits" per Solve call.
	Obs *obs.Recorder
	// Ctx, when non-nil, is polled during the solve; a canceled or expired
	// context aborts with the context's error (no fallback: cancellation
	// is a caller decision, not an engine failure).
	Ctx context.Context
	// Degrade, when non-nil, records the condensed -> reference engine
	// fallback so results are never silently produced by the slower
	// oracle path.
	Degrade *degrade.Log
}

// NumSources returns the number of sources.
func (p *Problem) NumSources() int { return len(p.Supply) }

// NumSinks returns the number of sinks.
func (p *Problem) NumSinks() int { return len(p.Capacity) }

// Portion is a fractional assignment of a source to a sink.
type Portion struct {
	Sink   int
	Amount float64
}

// Solution holds a fractional transportation plan.
type Solution struct {
	// Assign[i] lists the portions of source i, largest first.
	Assign [][]Portion
	// Cost is the total cost of the plan.
	Cost float64
}

// ErrInfeasible reports that some supply cannot reach any sink with
// remaining capacity.
var ErrInfeasible = errors.New("transport: infeasible instance")

// Rounded returns, per source, the sink receiving the largest portion.
// Sources with no assignment (impossible for feasible instances) map to -1.
func (s *Solution) Rounded() []int {
	out := make([]int, len(s.Assign))
	for i, ps := range s.Assign {
		if len(ps) == 0 {
			out[i] = -1
			continue
		}
		out[i] = ps[0].Sink
	}
	return out
}

// NumSplit returns the number of sources assigned to more than one sink —
// by almost-integrality this is at most (number of sinks - 1).
func (s *Solution) NumSplit() int {
	n := 0
	for _, ps := range s.Assign {
		if len(ps) > 1 {
			n++
		}
	}
	return n
}

// SolveReference solves the instance exactly with the generic min-cost
// flow solver. Intended for tests and small instances.
func SolveReference(p *Problem) (*Solution, error) {
	if err := referenceFault.Check(); err != nil {
		return nil, fmt.Errorf("transport: reference engine: %w", err)
	}
	n, k := p.NumSources(), p.NumSinks()
	g := flow.NewMinCostFlow(n + k)
	g.Ctx = p.Ctx
	for i, s := range p.Supply {
		if s <= 0 {
			return nil, fmt.Errorf("transport: source %d has non-positive supply %g", i, s)
		}
		g.SetSupply(i, s)
	}
	for j, c := range p.Capacity {
		g.SetSupply(n+j, -c)
	}
	ids := make([][]flow.ArcID, n)
	for i, arcs := range p.Arcs {
		ids[i] = make([]flow.ArcID, len(arcs))
		for t, a := range arcs {
			ids[i][t] = g.AddArc(i, n+a.Sink, flow.Inf, a.Cost)
		}
	}
	cost, err := g.Solve()
	if err != nil {
		var inf *flow.ErrInfeasible
		if errors.As(err, &inf) {
			return nil, fmt.Errorf("%w: %g unrouted", ErrInfeasible, inf.Unrouted)
		}
		return nil, err
	}
	sol := &Solution{Assign: make([][]Portion, n), Cost: cost}
	for i, arcs := range p.Arcs {
		for t, a := range arcs {
			f := g.Flow(ids[i][t])
			if f > flow.Eps {
				sol.Assign[i] = append(sol.Assign[i], Portion{Sink: a.Sink, Amount: f})
			}
		}
		sortPortions(sol.Assign[i])
	}
	return sol, nil
}

func sortPortions(ps []Portion) {
	sort.Slice(ps, func(a, b int) bool {
		//fbpvet:floatok exact tie-break on stored amounts keeps the sort total
		if ps[a].Amount != ps[b].Amount {
			return ps[a].Amount > ps[b].Amount
		}
		return ps[a].Sink < ps[b].Sink
	})
}

// Solve solves the instance with the condensed-sink engine. The solution
// is an optimal fractional plan (same cost as SolveReference up to
// numerical tolerance).
//
// Fallback chain: when the condensed engine fails for any reason other
// than a genuine infeasibility certificate or a context abort — an
// internal defect such as a degenerate augmentation or an injected fault —
// Solve retries the instance on the reference successive-shortest-path
// engine. The fallback is recorded on p.Degrade (and as an obs counter via
// the log), so a degraded run is attributable, never silent.
func Solve(p *Problem) (*Solution, error) {
	sol, augments, err := solveCondensed(p)
	if err != nil && fallbackWorthy(err) {
		p.Degrade.Add("transport.condensed", "reference-engine", err.Error())
		sol, err = SolveReference(p)
	}
	if p.Obs != nil {
		p.Obs.Count("transport.solves", 1)
		p.Obs.Count("transport.sources", float64(p.NumSources()))
		p.Obs.Count("transport.augments", float64(augments))
		if err == nil {
			p.Obs.Count("transport.splits", float64(sol.NumSplit()))
		}
	}
	return sol, err
}

// fallbackWorthy reports whether a condensed-engine error justifies the
// reference-engine retry. Infeasibility is a property of the instance (the
// reference engine would reproduce it at higher cost), and context aborts
// are caller decisions; everything else is an engine failure worth a
// second opinion.
func fallbackWorthy(err error) bool {
	return !errors.Is(err, ErrInfeasible) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// presence records how much of a source currently sits at a sink, and the
// stamp that tells this presence apart from earlier ones of the same source
// at the same sink.
type presence struct {
	source int
	amount float64
	stamp  uint32
}

// pairEntry offers reassigning source from the heap's first sink a to its
// second sink b at weight w = c(source, b) - c(source, a). It is valid while
// the presence with this stamp still sits at a.
type pairEntry struct {
	w      float64
	source int32
	stamp  uint32
}

func (x pairEntry) less(y pairEntry) bool {
	//fbpvet:floatok exact tie-break on stored weights keeps the order total
	if x.w != y.w {
		return x.w < y.w
	}
	return x.source < y.source
}

// pairHeap is a lazily deleted binary min-heap of the entries of one sink
// pair, ordered by (w, source). It is filled from the presences the first
// time the pair is read; from then on new presences push into it.
type pairHeap struct {
	e     []pairEntry
	built bool
}

func (h *pairHeap) push(e pairEntry) {
	h.e = append(h.e, e)
	for i := len(h.e) - 1; i > 0 && h.e[i].less(h.e[(i-1)/2]); i = (i - 1) / 2 {
		h.e[i], h.e[(i-1)/2] = h.e[(i-1)/2], h.e[i]
	}
}

func (h *pairHeap) pop() pairEntry {
	top, last := h.e[0], len(h.e)-1
	h.e[0] = h.e[last]
	h.e = h.e[:last]
	h.down(0)
	return top
}

func (h *pairHeap) down(i int) {
	for {
		m := i
		for _, ch := range [2]int{2*i + 1, 2*i + 2} {
			if ch < len(h.e) && h.e[ch].less(h.e[m]) {
				m = ch
			}
		}
		if m == i {
			return
		}
		h.e[i], h.e[m] = h.e[m], h.e[i]
		i = m
	}
}

// viaEdge is the shortest-path predecessor of a sink: the sink it is
// reached from and the (unreduced) weight of that condensed edge.
type viaEdge struct {
	from int
	w    float64
}

// condensed holds the solver state: presences per sink with an O(1) slot
// index, one pair heap per ordered sink pair, sink potentials, and the
// shortest-path scratch reused across augmentations.
type condensed struct {
	n, k int
	// costOf is a dense n x k matrix of arc costs (+Inf = inadmissible);
	// dense storage keeps the hot loops free of map lookups.
	costOf []float64
	at     [][]presence
	slot   []int32 // slot[j*n+i] indexes source i in at[j], -1 = absent
	load   []float64
	heaps  []pairHeap // heaps[a*k+b]
	stamps uint32
	pi     []float64 // sink potentials; pi[k] is the super-sink's
	dist   []float64
	done   []bool
	via    []viaEdge
	path   []int
	groups []tiedGroup
}

// tiedGroup holds the popped entries of one path edge that tie its weight,
// and the amount they hold.
type tiedGroup struct {
	e     []pairEntry
	total float64
}

// valid reports whether e still describes a presence at sink a.
func (c *condensed) valid(a int, e pairEntry) bool {
	s := c.slot[a*c.n+int(e.source)]
	return s >= 0 && c.at[a][s].stamp == e.stamp
}

// edge returns the cheapest valid reassignment from sink a to sink b,
// building the pair heap on first use.
func (c *condensed) edge(a, b int) (pairEntry, bool) {
	h := &c.heaps[a*c.k+b]
	if !h.built {
		h.built = true
		for _, pr := range c.at[a] {
			if row := c.costOf[pr.source*c.k:]; !math.IsInf(row[b], 1) {
				h.e = append(h.e, pairEntry{w: row[b] - row[a], source: int32(pr.source), stamp: pr.stamp})
			}
		}
		for i := len(h.e)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
	}
	for len(h.e) > 0 && !c.valid(a, h.e[0]) {
		h.pop()
	}
	if len(h.e) == 0 {
		return pairEntry{}, false
	}
	return h.e[0], true
}

// add puts amt of src onto sink j. A new presence is offered to the built
// heaps of the pairs leaving j.
func (c *condensed) add(j, src int, amt float64) {
	if s := c.slot[j*c.n+src]; s >= 0 {
		c.at[j][s].amount += amt
		return
	}
	c.stamps++
	row := c.costOf[src*c.k : (src+1)*c.k]
	c.slot[j*c.n+src] = int32(len(c.at[j]))
	c.at[j] = append(c.at[j], presence{source: src, amount: amt, stamp: c.stamps})
	for b, cb := range row {
		if h := &c.heaps[j*c.k+b]; h.built && b != j && !math.IsInf(cb, 1) {
			h.push(pairEntry{w: cb - row[j], source: int32(src), stamp: c.stamps})
		}
	}
}

// remove takes amt of src off sink j; it reports whether the presence is
// gone (its heap entries then lapse lazily).
func (c *condensed) remove(j, src int, amt float64) bool {
	s := c.slot[j*c.n+src]
	ps := c.at[j]
	if ps[s].amount -= amt; ps[s].amount > flow.Eps {
		return false
	}
	last := len(ps) - 1
	ps[s] = ps[last]
	c.slot[j*c.n+ps[s].source] = s
	c.slot[j*c.n+src] = -1
	c.at[j] = ps[:last]
	return true
}

func solveCondensed(p *Problem) (*Solution, int, error) {
	if err := condensedFault.Check(); err != nil {
		return nil, 0, fmt.Errorf("transport: condensed engine: %w", err)
	}
	n, k := p.NumSources(), p.NumSinks()
	c := &condensed{
		n:      n,
		k:      k,
		costOf: make([]float64, n*k),
		at:     make([][]presence, k),
		slot:   make([]int32, n*k),
		load:   make([]float64, k),
		heaps:  make([]pairHeap, k*k),
		pi:     make([]float64, k+1),
		dist:   make([]float64, k+1),
		done:   make([]bool, k+1),
		via:    make([]viaEdge, k+1),
	}
	for i := range c.costOf {
		c.costOf[i], c.slot[i] = math.Inf(1), -1
	}
	for i, arcs := range p.Arcs {
		for _, a := range arcs {
			c.costOf[i*k+a.Sink] = math.Min(c.costOf[i*k+a.Sink], a.Cost)
		}
	}
	// Initial optimal pseudoflow: each source at its cheapest sink. Every
	// condensed weight is then >= 0, so zero potentials are valid.
	for i := 0; i < n; i++ {
		if p.Supply[i] <= 0 {
			return nil, 0, fmt.Errorf("transport: source %d has non-positive supply %g", i, p.Supply[i])
		}
		best := -1
		for j, cj := range c.costOf[i*k : (i+1)*k] {
			if !math.IsInf(cj, 1) && (best < 0 || cj < c.costOf[i*k+best]) {
				best = j
			}
		}
		if best < 0 {
			return nil, 0, fmt.Errorf("%w: source %d has no admissible sink", ErrInfeasible, i)
		}
		c.add(best, i, p.Supply[i])
		c.load[best] += p.Supply[i]
	}
	// Cancel overloads along shortest paths from an overloaded sink to the
	// super-sink, which every sink with slack reaches.
	augments := 0
	for ; ; augments++ {
		if p.Ctx != nil {
			if err := p.Ctx.Err(); err != nil {
				return nil, augments, err
			}
		}
		over := -1
		for j := 0; j < k; j++ {
			if c.load[j] > p.Capacity[j]+flow.Eps {
				over = j
				break
			}
		}
		if over < 0 {
			break
		}
		target, err := c.dijkstra(over, p.Capacity)
		if err != nil {
			return nil, augments, err
		}
		if target < 0 {
			return nil, augments, fmt.Errorf("transport: %w", ErrInfeasible)
		}
		path := c.path[:0] // sink sequence from over to target
		for j := target; j != over; j = c.via[j].from {
			path = append(path, j)
		}
		path = append(path, over)
		slices.Reverse(path)
		c.path = path
		// Batch augmentation: along each path edge, every presence whose
		// reassignment weight ties the edge's *exactly* has zero reduced
		// weight too, so a tied group moves in one augmentation. This
		// collapses the thousands of unit-sized augmentations of cells that
		// share a position. Ties must be exact: batching epsilon-near
		// candidates would break the potentials' non-negativity. Groups are
		// popped from their pair heaps in rounds of doubling size, starting
		// at 1/1024 of the amount to move, so no group holds much more than
		// the path's bottleneck amount; the surplus goes back to the heap.
		move := math.Min(c.load[over]-p.Capacity[over], p.Capacity[target]-c.load[target])
		for len(c.groups) < len(path)-1 {
			c.groups = append(c.groups, tiedGroup{})
		}
		groups := c.groups[:len(path)-1]
		for t := range groups {
			groups[t] = tiedGroup{e: groups[t].e[:0]}
		}
		for size := move / 1024; ; size = math.Min(2*size, move) {
			for t := range groups {
				a, b, g := path[t], path[t+1], &groups[t]
				h, want := &c.heaps[a*k+b], math.Min(size, move)
				//fbpvet:floatok exact ties only: equal weights have equal reduced weights
				for g.total < want && len(h.e) > 0 && h.e[0].w == c.via[b].w {
					if e := h.pop(); c.valid(a, e) {
						g.e = append(g.e, e)
						g.total += c.at[a][c.slot[a*n+int(e.source)]].amount
					}
				}
				if g.total < want { // the tied group is exhausted
					move = g.total
				}
			}
			if size >= move {
				break
			}
		}
		if move <= flow.Eps {
			return nil, augments, fmt.Errorf("transport: degenerate augmentation (move %g)", move)
		}
		for t := 0; t+1 < len(path); t++ {
			a, b := path[t], path[t+1]
			remaining := move
			for _, e := range groups[t].e {
				if src := int(e.source); remaining > flow.Eps {
					amt := math.Min(c.at[a][c.slot[a*n+src]].amount, remaining)
					gone := c.remove(a, src, amt)
					c.add(b, src, amt)
					if remaining -= amt; gone {
						continue
					}
				}
				c.heaps[a*k+b].push(e) // still at a under the same stamp
			}
			c.load[a] -= move
			c.load[b] += move
		}
	}
	// Extract solution.
	sol := &Solution{Assign: make([][]Portion, n)}
	for j := 0; j < k; j++ {
		for _, pr := range c.at[j] {
			sol.Assign[pr.source] = append(sol.Assign[pr.source], Portion{Sink: j, Amount: pr.amount})
			sol.Cost += pr.amount * c.costOf[pr.source*k+j]
		}
	}
	for i := range sol.Assign {
		sortPortions(sol.Assign[i])
	}
	return sol, augments, nil
}

// dijkstra runs a dense Dijkstra over the k-sink condensed graph plus the
// super-sink T = k, from the overloaded sink over, on weights reduced by the
// sink potentials. Edge a->b weighs the cheapest reassignment of a source
// at a to b; every sink with slack reaches T at weight 0. It stops when T
// settles, sets pi += min(d, d_T), and returns the slack sink T is reached
// from (-1 when T is unreachable: the instance is infeasible).
func (c *condensed) dijkstra(over int, capacity []float64) (int, error) {
	k := c.k
	for j := 0; j <= k; j++ {
		c.dist[j], c.done[j] = math.Inf(1), false
	}
	c.dist[over] = 0
	for {
		u := -1
		for j := 0; j <= k; j++ {
			if !c.done[j] && (u < 0 || c.dist[j] < c.dist[u]) {
				u = j
			}
		}
		if math.IsInf(c.dist[u], 1) {
			return -1, nil
		}
		if c.done[u] = true; u == k {
			break
		}
		if c.load[u] < capacity[u]-flow.Eps {
			if err := c.relax(u, k, 0); err != nil {
				return -1, err
			}
		}
		for b := 0; b < k; b++ {
			if c.done[b] {
				continue
			}
			if e, ok := c.edge(u, b); ok {
				if err := c.relax(u, b, e.w); err != nil {
					return -1, err
				}
			}
		}
	}
	for j := 0; j <= k; j++ {
		c.pi[j] += math.Min(c.dist[j], c.dist[k])
	}
	return c.via[k].from, nil
}

// relax offers the condensed edge a->b of weight w. Potentials keep reduced
// weights non-negative up to rounding in the three terms; a negative one is
// an engine defect, reported so Solve falls back to the reference engine
// rather than return a plan that is not optimal.
func (c *condensed) relax(a, b int, w float64) error {
	rw := w + c.pi[a] - c.pi[b]
	if rw < -1e-9*(1+math.Abs(w)+math.Abs(c.pi[a])+math.Abs(c.pi[b])) {
		return fmt.Errorf("transport: negative reduced weight %g on sink pair %d->%d", rw, a, b)
	}
	if d := c.dist[a] + rw; d < c.dist[b] {
		c.dist[b], c.via[b] = d, viaEdge{from: a, w: w}
	}
	return nil
}
