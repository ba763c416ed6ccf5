package flow

import (
	"context"
	"fmt"
	"math"

	"fbplace/internal/faultsim"
)

// nsFault forces the network simplex to report a stall, driving the
// NS -> successive-shortest-paths fallback of internal/fbp.
var nsFault = faultsim.Register("flow.ns.stall",
	"network simplex reports ErrStalled during the pivot loop")

// ErrStalled is returned by SolveNS when the pivot loop exceeds its cap
// without reaching optimality (cycling or injected stall). The instance is
// NOT known to be infeasible; callers should fall back to the successive
// shortest path solver (Solve), which terminates unconditionally.
type ErrStalled struct {
	// Pivots is the number of pivots performed before giving up.
	Pivots int
}

func (e *ErrStalled) Error() string {
	return fmt.Sprintf("flow: network simplex stalled after %d pivots", e.Pivots)
}

// SolveNS solves the same minimum-cost flow problem as Solve with a
// (sequential) network simplex — the algorithm the paper reports using for
// the FBP MinCostFlow ("computed by a (sequential) NetworkSimplex"). On
// the large grid models of Table I it is orders of magnitude faster than
// successive shortest paths: the zero-cost transit mesh that makes
// Dijkstra-based augmentation churn is handled by plain tree pivots.
//
// Like Solve, it routes all supply (demands may stay unfilled) and returns
// *ErrInfeasible when some supply cannot reach remaining demand. After a
// successful run Flow(id) reports the arc flows.
func (g *MinCostFlow) SolveNS() (float64, error) {
	if g.buildErr != nil {
		return 0, g.buildErr
	}
	g.duals = nil
	n := len(g.adj)
	// Balance the instance: total supply S must equal total demand D.
	// D >= S is the normal case (capacity exceeds cell area): a dummy
	// supply node feeds the leftover demand at zero cost. S > D is
	// impossible to satisfy; route what fits and report infeasible.
	totalSupply, totalDemand := 0.0, 0.0
	for v := 0; v < n; v++ {
		if b := g.supply[v]; b > Eps {
			totalSupply += b
		} else if b < -Eps {
			totalDemand += -b
		}
	}
	ns := &netSimplex{numNodes: n + 2} // + dummy balancer + artificial root
	dummy := n
	root := n + 1
	// At most one dummy arc per real node, the real arcs, and one
	// artificial arc per non-root node.
	ns.reserveArcs(n + len(g.arcPos) + n + 1)
	b := make([]float64, ns.numNodes)
	for v := 0; v < n; v++ {
		b[v] = g.supply[v]
	}
	var dummyArcs []int
	if totalDemand >= totalSupply {
		b[dummy] = totalDemand - totalSupply
		for v := 0; v < n; v++ {
			if g.supply[v] < -Eps {
				ns.addArc(dummy, v, -g.supply[v], 0)
			}
		}
	} else {
		// More supply than demand: the instance cannot route everything.
		// The dummy absorbs the excess at a cost just above any real
		// path, so the simplex still routes as much real flow as possible
		// and the absorbed amount is reported as unrouted below.
		b[dummy] = -(totalSupply - totalDemand)
		spill := (g.maxCost + 1) * float64(n)
		for v := 0; v < n; v++ {
			if g.supply[v] > Eps {
				dummyArcs = append(dummyArcs, ns.addArc(v, dummy, g.supply[v], spill))
			}
		}
	}
	// Real arcs (forward arcs as added by AddArc; adj holds residuals but
	// nothing has been routed yet, so cap is the original capacity).
	realArc := make([]int, len(g.arcPos))
	for id, p := range g.arcPos {
		a := &g.adj[p[0]][p[1]]
		realArc[id] = ns.addArc(int(p[0]), int(a.to), a.cap, a.cost)
	}
	ns.initTree(b, root, g.maxCost)
	// Publish pivot stats (pivots and the nodes they re-potentialed) on
	// EVERY exit — success, infeasibility, stall and context aborts alike.
	// A stalled run in particular did real work that the NS->SSP fallback
	// would otherwise hide from observability and the degradation record.
	defer func() {
		g.Pivots = ns.pivots
		g.Obs.Count("ns.pivots", float64(ns.pivots))
		g.Obs.Count("ns.tree_nodes", float64(ns.treeNodes))
	}()
	if err := ns.run(g.Ctx, b, g.maxCost); err != nil {
		return 0, err
	}
	// Infeasibility: artificial root arcs still carrying flow, plus any
	// excess supply the dummy had to absorb. Artificial flows pair up
	// (stranded supply x -> root matches unmet demand root -> y), so only
	// the supply side is counted; the dummy's own artificial arc carries
	// bookkeeping flow, not real supply.
	unrouted := 0.0
	for _, ai := range ns.artificial {
		if int(ns.to[ai]) == root && int(ns.from[ai]) != dummy {
			unrouted += ns.flow[ai]
		}
	}
	for _, ai := range dummyArcs {
		unrouted += ns.flow[ai]
	}
	// Write flows back into the residual structure so Flow(id) works.
	totalCost := 0.0
	for id, p := range g.arcPos {
		f := ns.flow[realArc[id]]
		a := &g.adj[p[0]][p[1]]
		a.cap -= f
		g.adj[a.to][a.rev].cap += f
		if !math.IsInf(a.cost, 1) {
			totalCost += f * a.cost
		}
	}
	if unrouted > 1e-6*math.Max(1, totalSupply) {
		return totalCost, &ErrInfeasible{Unrouted: unrouted}
	}
	// The simplex terminated with no non-tree arc violating its bound's
	// reduced-cost condition beyond Eps*(1+maxCost): ns.pi is a feasible
	// dual certificate for the real-node subproblem.
	g.duals = &Duals{
		Pot:       append([]float64(nil), ns.pi[:n]...),
		Arcs:      len(g.arcPos),
		CostScale: 1 + g.maxCost,
	}
	return totalCost, nil
}

// Arc states of the simplex. The values are the sign that turns an arc's
// reduced cost into its violation (lower: -rc, upper: +rc), so pricing
// needs no branch; tree arcs price to zero and never enter.
const (
	stateUpper = -1
	stateTree  = 0
	stateLower = 1
)

// netSimplex is a primal network simplex over a spanning tree rooted at an
// artificial root. The tree is kept in LEMON's layout (Király & Kovács,
// "Efficient implementations of minimum-cost flow algorithms", 2012):
// parent pointers plus a preorder thread, so every subtree is one
// contiguous run of the thread. Each pivot re-hangs one subtree by
// splicing thread runs and refreshes its potentials by walking its run.
type netSimplex struct {
	from, to []int32
	cap      []float64
	cost     []float64
	flow     []float64
	state    []int8

	parent   []int32   // tree parent (-1 at the root)
	predArc  []int32   // arc connecting v to parent
	predUp   []bool    // true when the arc is directed v -> parent
	predCost []float64 // pred arc cost signed so that pi[v] = pi[parent] + predCost[v]
	pi       []float64 // node potentials
	depth    []int32   // tree depth (root 0), maintained by init and pivots

	thread    []int32 // preorder successor, circular through the root
	revThread []int32 // preorder predecessor
	succNum   []int32 // subtree size
	lastSucc  []int32 // last node of the subtree in preorder
	dirty     []int32 // updateTree scratch: nodes whose thread successor moved

	artificial []int // arc ids of the root arcs
	numNodes   int
	pivots     int
	treeNodes  int // nodes re-potentialed, summed over pivots
}

// reserveArcs sizes the arc arrays for m arcs, so that building the
// instance does not regrow them.
func (ns *netSimplex) reserveArcs(m int) {
	ns.from = make([]int32, 0, m)
	ns.to = make([]int32, 0, m)
	ns.cap = make([]float64, 0, m)
	ns.cost = make([]float64, 0, m)
	ns.flow = make([]float64, 0, m)
	ns.state = make([]int8, 0, m)
}

func (ns *netSimplex) addArc(u, v int, capacity, cost float64) int {
	ns.from = append(ns.from, int32(u))
	ns.to = append(ns.to, int32(v))
	ns.cap = append(ns.cap, capacity)
	ns.cost = append(ns.cost, cost)
	ns.flow = append(ns.flow, 0)
	ns.state = append(ns.state, stateLower)
	return len(ns.from) - 1
}

// initTree builds the classic all-artificial starting tree: every node
// hangs off the root through a big-M arc oriented by the sign of its
// imbalance, which carries exactly that imbalance. The thread runs root,
// then every other node in index order.
func (ns *netSimplex) initTree(b []float64, root int, maxCost float64) {
	nn := ns.numNodes
	bigM := (maxCost + 1) * float64(nn)
	ns.parent = make([]int32, nn)
	ns.predArc = make([]int32, nn)
	ns.predUp = make([]bool, nn)
	ns.predCost = make([]float64, nn)
	ns.pi = make([]float64, nn)
	ns.depth = make([]int32, nn)
	ns.thread = make([]int32, nn)
	ns.revThread = make([]int32, nn)
	ns.succNum = make([]int32, nn)
	ns.lastSucc = make([]int32, nn)
	ns.dirty = make([]int32, 0, nn)
	ns.artificial = make([]int, 0, nn-1)
	prev := int32(root)
	for v := 0; v < nn; v++ {
		ns.succNum[v] = 1
		ns.lastSucc[v] = int32(v)
		if v == root {
			ns.parent[v] = -1
			ns.predArc[v] = -1
			continue
		}
		var ai int
		if b[v] >= 0 {
			ai = ns.addArc(v, root, Inf, bigM)
			ns.flow[ai] = b[v]
			ns.predUp[v] = true
			ns.predCost[v] = -bigM
			ns.pi[v] = -bigM
		} else {
			ai = ns.addArc(root, v, Inf, bigM)
			ns.flow[ai] = -b[v]
			ns.predUp[v] = false
			ns.predCost[v] = bigM
			ns.pi[v] = bigM
		}
		ns.state[ai] = stateTree
		ns.artificial = append(ns.artificial, ai)
		ns.parent[v] = int32(root)
		ns.predArc[v] = int32(ai)
		ns.depth[v] = 1
		ns.thread[prev] = int32(v)
		ns.revThread[v] = prev
		prev = int32(v)
	}
	ns.thread[prev] = int32(root)
	ns.revThread[root] = prev
	ns.succNum[root] = int32(nn)
	ns.lastSucc[root] = prev
}

// run executes the pivot loop of a simplex whose starting tree initTree
// has built; b is the (balanced) imbalance vector including the dummy
// node. A non-nil ctx is polled periodically and aborts the run with the
// context's error.
func (ns *netSimplex) run(ctx context.Context, b []float64, maxCost float64) error {
	m := len(ns.from)
	block := int(math.Sqrt(float64(m))) + 1
	scan := 0
	maxPivots := 200*m + 10000
	if nsDebugCheck != nil {
		// Validate the starting basis too (pivot -1).
		nsDebugCheck(ns, b, -1)
	}
	for pivot := 0; ; pivot++ {
		if pivot > maxPivots {
			// Cycling guard. This is a solver stall, not an infeasibility
			// certificate: callers fall back to successive shortest paths.
			return &ErrStalled{Pivots: ns.pivots}
		}
		if pivot&1023 == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := nsFault.Check(); err != nil {
				return &ErrStalled{Pivots: ns.pivots}
			}
		}
		// Block search for the entering arc.
		enter := -1
		bestViol := Eps * (1 + maxCost)
		scanned := 0
		state, cost, from, to, pi := ns.state, ns.cost, ns.from, ns.to, ns.pi
		for scanned < m {
			end := scan + block
			if end > m {
				end = m
			}
			for ai := scan; ai < end; ai++ {
				rc := cost[ai] + pi[from[ai]] - pi[to[ai]]
				if viol := -float64(state[ai]) * rc; viol > bestViol {
					bestViol = viol
					enter = ai
				}
			}
			scanned += end - scan
			scan = end
			if scan >= m {
				scan = 0
			}
			if enter >= 0 {
				break
			}
		}
		if enter < 0 {
			break // optimal
		}
		ns.pivot(enter)
		ns.pivots++
		if nsDebugCheck != nil {
			nsDebugCheck(ns, b, pivot)
		}
	}
	return nil
}

// residual returns how much flow can be pushed through tree arc ai in the
// direction "down-to-up == up" (true pushes from the arc's from-side).
func (ns *netSimplex) residualDir(ai int32, forward bool) float64 {
	if forward {
		return ns.cap[ai] - ns.flow[ai]
	}
	return ns.flow[ai]
}

// pivot performs one simplex pivot with the given entering arc.
func (ns *netSimplex) pivot(enter int) {
	depth := ns.depth
	u, v := ns.from[enter], ns.to[enter]
	// Push direction along the entering arc: lower -> forward (u to v),
	// upper -> backward (v to u).
	forward := ns.state[enter] == stateLower
	src, dst := u, v
	if !forward {
		src, dst = v, u
	}
	// Walk both endpoints up to the join, recording the bottleneck.
	delta := ns.residualDir(int32(enter), forward)
	// Leaving arc bookkeeping: -1 = entering arc itself (state toggle).
	leaveNode := int32(-1) // node whose pred arc leaves (on either path)
	leaveOnSrc := false
	// The cycle runs src -(enter)-> dst -(up to join)-> join -(down)-> src:
	// dst-side tree arcs are traversed child->parent, src-side ones
	// parent->child.
	a, bnode := src, dst
	for a != bnode {
		if depth[a] >= depth[bnode] {
			// Src side: cycle flow runs parent -> child, i.e. with the
			// arc exactly when the arc points down (!predUp).
			ai := ns.predArc[a]
			if res := ns.residualDir(ai, !ns.predUp[a]); res < delta {
				delta = res
				leaveNode = a
				leaveOnSrc = true
			}
			a = ns.parent[a]
		} else {
			// Dst side: cycle flow runs child -> parent.
			ai := ns.predArc[bnode]
			if res := ns.residualDir(ai, ns.predUp[bnode]); res < delta {
				delta = res
				leaveNode = bnode
				leaveOnSrc = false
			}
			bnode = ns.parent[bnode]
		}
	}
	join := a
	// Apply the flow change around the cycle.
	if delta > 0 {
		if forward {
			ns.flow[enter] += delta
		} else {
			ns.flow[enter] -= delta
		}
		for x := src; x != join; x = ns.parent[x] {
			// Parent -> child traversal: against the arc when it points up.
			if ns.predUp[x] {
				ns.flow[ns.predArc[x]] -= delta
			} else {
				ns.flow[ns.predArc[x]] += delta
			}
		}
		for x := dst; x != join; x = ns.parent[x] {
			// Child -> parent traversal: with the arc when it points up.
			if ns.predUp[x] {
				ns.flow[ns.predArc[x]] += delta
			} else {
				ns.flow[ns.predArc[x]] -= delta
			}
		}
	}
	// Determine the leaving arc.
	if leaveNode < 0 {
		// The entering arc itself blocks: toggle its bound state.
		ns.state[enter] = -ns.state[enter]
		return
	}
	leaveArc := ns.predArc[leaveNode]
	// The leaving arc exits at its bound.
	if ns.flow[leaveArc] <= Eps {
		ns.state[leaveArc] = stateLower
		ns.flow[leaveArc] = 0
	} else {
		ns.state[leaveArc] = stateUpper
		ns.flow[leaveArc] = ns.cap[leaveArc]
	}
	// Re-hang: the subtree cut off by removing leaveArc contains src (if
	// the leaving arc was on the src path) or dst. That subtree is
	// re-rooted at uIn, the entering arc's endpoint inside it, and
	// attached through the entering arc below vIn, the other endpoint.
	// Seen from uIn the entering arc points up to vIn exactly when it runs
	// uIn -> vIn.
	uIn, vIn := dst, src
	if leaveOnSrc {
		uIn, vIn = src, dst
	}
	ns.updateTree(int32(enter), uIn, vIn, leaveNode, join, u == uIn)
	ns.state[enter] = stateTree
	// Refresh potentials and depths of the re-hung subtree, whose nodes
	// are the thread run from uIn; preorder visits every parent first.
	parent, thread, pi, predCost := ns.parent, ns.thread, ns.pi, ns.predCost
	end := thread[ns.lastSucc[uIn]]
	for x := uIn; x != end; x = thread[x] {
		p := parent[x]
		pi[x] = pi[p] + predCost[x]
		depth[x] = depth[p] + 1
	}
	ns.treeNodes += int(ns.succNum[uIn])
}

// updateTree re-hangs the subtree of uOut, whose pred arc leaves the tree,
// below vIn through the entering arc enter, whose endpoint uIn lies in
// that subtree; join is the apex of the pivot cycle and up orients enter
// as uIn -> vIn. The path from uIn up to uOut (the stem) reverses, so each
// stem node's pred arc becomes the one its old child used. It is LEMON's
// updateTreeStructure: the thread runs of the stem nodes are spliced into
// their new preorder right after vIn, and subtree sizes and last
// successors are fixed up along the stem and from vIn and the old parent
// of uOut towards the join.
func (ns *netSimplex) updateTree(enter, uIn, vIn, uOut, join int32, up bool) {
	parent, thread, revThread := ns.parent, ns.thread, ns.revThread
	succNum, lastSucc := ns.succNum, ns.lastSucc
	oldRevThread := revThread[uOut]
	oldSuccNum := succNum[uOut]
	oldLastSucc := lastSucc[uOut]
	vOut := parent[uOut]
	if uIn == uOut {
		// No stem: move uOut's thread run behind vIn unless it is there.
		if thread[vIn] != uOut {
			after := thread[oldLastSucc]
			thread[oldRevThread] = after
			revThread[after] = oldRevThread
			after = thread[vIn]
			thread[vIn] = uOut
			revThread[uOut] = vIn
			thread[oldLastSucc] = after
			revThread[after] = oldLastSucc
		}
	} else {
		// When vIn precedes uOut in the thread (then join is vOut), the
		// re-hung run takes the old run's place.
		threadContinue := thread[vIn]
		if oldRevThread == vIn {
			threadContinue = thread[oldLastSucc]
		}
		// Walk the stem: append each stem node's run minus its old child's
		// run, and unlink that child run from the old thread.
		stem, parStem := uIn, vIn
		last := lastSucc[uIn] // last node of stem's new run
		after := thread[last]
		thread[vIn] = uIn
		dirty := append(ns.dirty[:0], vIn)
		for stem != uOut {
			next := parent[stem]
			thread[last] = next
			dirty = append(dirty, last)
			before := revThread[stem]
			thread[before] = after
			revThread[after] = before
			parent[stem] = parStem
			parStem, stem = stem, next
			if lastSucc[stem] == lastSucc[parStem] {
				last = revThread[parStem]
			} else {
				last = lastSucc[stem]
			}
			after = thread[last]
		}
		parent[uOut] = parStem
		thread[last] = threadContinue
		revThread[threadContinue] = last
		lastSucc[uOut] = last
		if oldRevThread != vIn {
			thread[oldRevThread] = after
			revThread[after] = oldRevThread
		}
		for _, x := range dirty {
			revThread[thread[x]] = x
		}
		ns.dirty = dirty
		// Down the stem from uOut: each node takes its new parent's old
		// pred arc, reversed, and the new subtree sizes accumulate; every
		// stem subtree now ends where uOut's does.
		sc := int32(0)
		for x := uOut; x != uIn; {
			p := parent[x]
			ns.predArc[x] = ns.predArc[p]
			ns.predUp[x] = !ns.predUp[p]
			ns.predCost[x] = -ns.predCost[p]
			sc += succNum[x] - succNum[p]
			succNum[x] = sc
			lastSucc[p] = last
			x = p
		}
		succNum[uIn] = oldSuccNum
	}
	parent[uIn] = vIn
	ns.predArc[uIn] = enter
	ns.predUp[uIn] = up
	if up {
		ns.predCost[uIn] = -ns.cost[enter]
	} else {
		ns.predCost[uIn] = ns.cost[enter]
	}
	// Last successors from vIn towards the root: a leaf vIn (and every
	// ancestor ending with it) now ends with the re-hung run.
	upLimitOut := int32(-1)
	if lastSucc[join] == vIn {
		upLimitOut = join
	}
	lastSuccOut := lastSucc[uOut]
	for x := vIn; x != -1 && lastSucc[x] == vIn; x = parent[x] {
		lastSucc[x] = lastSuccOut
	}
	// Last successors from vOut towards the root: those that ended with
	// uOut's old run now end before it, or with the re-hung run where it
	// took the old run's place.
	if join != oldRevThread && vIn != oldRevThread {
		for x := vOut; x != upLimitOut && lastSucc[x] == oldLastSucc; x = parent[x] {
			lastSucc[x] = oldRevThread
		}
	} else if lastSuccOut != oldLastSucc {
		for x := vOut; x != upLimitOut && lastSucc[x] == oldLastSucc; x = parent[x] {
			lastSucc[x] = lastSuccOut
		}
	}
	// Subtree sizes between the join and the two attachment points.
	for x := vIn; x != join; x = parent[x] {
		succNum[x] += oldSuccNum
	}
	for x := vOut; x != join; x = parent[x] {
		succNum[x] -= oldSuccNum
	}
}
