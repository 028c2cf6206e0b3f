// Package fluid implements a generalized max-min fair fluid-flow model.
//
// Subsystem models in this repository (memory controllers, interconnect
// links, NICs, CPU cores, storage devices) are expressed as resources with a
// finite capacity. Data streams are flows that consume capacity on every
// resource they cross, scaled by a per-resource coefficient: a flow running
// at rate R consumes coeff×R on each resource it uses. Coefficients encode
// data-path facts such as "a TCP send crosses the source memory controller
// three times (application read + copy read + copy write)" or "this thread
// spends k core-seconds per byte of protocol processing".
//
// Solve performs weighted progressive filling: all unfrozen flows rise
// proportionally to their weights until a resource saturates or a flow hits
// its demand cap, those flows freeze, and filling continues. The result is
// the weighted max-min fair allocation, the standard fluid approximation for
// bandwidth sharing in networks and memory systems.
//
// # Flow classes
//
// A flow may stand for k identical member streams (NewFlowClass, SetMembers):
// Demand and Weight are per member, the class competes with effective weight
// Weight×members, and the solved aggregate Rate() is members×MemberRate().
// Because every member of a class crosses the same resources with the same
// coefficients and weight, the max-min allocation splits the class rate
// evenly — MemberRate() is the exact per-stream disaggregation. Collapsing k
// same-path/same-weight flows into one class flow shrinks both the solver
// population and the dirty scan from O(streams) to O(classes).
//
// # Bottleneck subgraphs
//
// The flow/resource bipartite graph is partitioned into connected components
// of the resources some flow uses. The partition is kept live across
// structural edits (flow arrivals and departures, Use on a registered flow)
// with work proportional to the component touched: an arrival unions the
// components of the resources it uses, a departure re-checks only its own
// component for a split. Progressive filling is purely component-local — a
// component's rates depend only on its own flows and resources — so Resolve
// refills just the components that changed and proves the rest fixed-point
// stable by construction: their inputs are unchanged and the deterministic
// per-component fill would reproduce the stored rates bit for bit.
package fluid

import (
	"fmt"
	"math"
	"slices"
)

// Resource is a capacity-constrained component: a link, a memory controller,
// a CPU core, a storage device. Capacity is in resource units per second
// (bytes/s for bandwidth-like resources, core-seconds/s — i.e. 1.0 — for a
// CPU core).
type Resource struct {
	Name     string
	Capacity float64

	// load is the solved aggregate consumption, maintained by Solve.
	load float64
	// index is the resource's position in its network, for solver arrays.
	index int

	// users counts the Usages of registered flows that reference the
	// resource; comp is its component (nil while users is 0). pos is
	// scratch: split's position in comp.res, fill's position among the
	// component's tight resources (−1 for a slack one).
	users int32
	pos   int32
	comp  *component
	// solvedCap is the capacity the last fill of comp read.
	solvedCap float64

	// acct holds the consumption Sim has folded into the resource, one
	// bucket per accounting tag. Sim.accounted lists the resources whose
	// acct is non-empty.
	acct []bucket
}

// Load returns the aggregate consumption on the resource from the most
// recent Solve, in resource units per second.
func (r *Resource) Load() float64 { return r.load }

// Index returns the resource's registration position in its network. It is
// stable for the resource's lifetime, which makes it a deterministic key
// for route signatures and flow-class pooling.
func (r *Resource) Index() int { return r.index }

// Utilization returns Load/Capacity, or 0 for zero-capacity resources.
func (r *Resource) Utilization() float64 {
	if r.Capacity <= 0 {
		return 0
	}
	return r.load / r.Capacity
}

// Usage binds a flow to a resource: the flow consumes Coeff×rate on
// Resource. Tag labels the consumption for accounting (e.g. "sys", "copy",
// "user") and may be empty.
type Usage struct {
	Resource *Resource
	Coeff    float64
	Tag      string
}

// Flow is a fluid stream, or a class of identical member streams. Demand and
// Weight are per member; rate is computed by Network.Solve.
type Flow struct {
	Name   string
	Demand float64 // per-member upper bound on rate; math.Inf(1) if unbounded
	Weight float64 // per-member share weight for max-min fairness; must be > 0
	// Uses lists the resources the flow consumes. The network owns its
	// backing array: RemoveFlow clears the array, recycles it for a later
	// flow and sets Uses to nil. Never keep a Uses slice past RemoveFlow —
	// it would alias another flow's usages.
	Uses []Usage

	// members is the stream multiplicity (≥1). The class competes with
	// effective weight Weight×members and Rate() aggregates all members.
	members int
	// attached counts member transfers bound via Sim.StartMember.
	attached int
	// index is the flow's position in its network, for O(1) removal.
	index int
	// net is the network the flow is registered in (nil once removed) and
	// comp its component (nil while it crosses no resource).
	net  *Network
	comp *component

	rate       float64 // aggregate: members × memberRate
	memberRate float64
	frozen     bool

	// The parameters the last fill of this flow read. A fresh flow starts
	// with NaN, which never compares equal, so Resolve always fills it.
	solvedDemand  float64
	solvedWeight  float64
	solvedMembers int
}

// Rate returns the solved aggregate rate in flow units (bytes) per second,
// summed over all members of the class.
func (f *Flow) Rate() float64 { return f.rate }

// MemberRate returns the solved rate of one member stream. For a plain flow
// (members==1) it equals Rate().
func (f *Flow) MemberRate() float64 { return f.memberRate }

// Members returns the stream multiplicity of the class (1 for plain flows).
func (f *Flow) Members() int { return f.members }

// Use adds a resource the flow consumes, with the given coefficient.
// Non-positive coefficients are ignored: they denote "does not touch".
func (f *Flow) Use(r *Resource, coeff float64) *Flow {
	return f.UseTagged(r, coeff, "")
}

// UseTagged adds a resource consumption labelled with an accounting tag.
func (f *Flow) UseTagged(r *Resource, coeff float64, tag string) *Flow {
	if r == nil {
		panic("fluid: Use with nil resource")
	}
	if coeff > 0 {
		f.Uses = append(f.Uses, Usage{Resource: r, Coeff: coeff, Tag: tag})
		if f.net != nil {
			f.net.link(f, r)
		}
	}
	return f
}

// SolverStats counts how Resolve calls were satisfied.
type SolverStats struct {
	// FullSolves is the number of complete progressive-filling runs.
	FullSolves uint64
	// PartialSolves counts Resolve calls satisfied by refilling only the
	// bottleneck subgraphs (connected components) containing a change.
	PartialSolves uint64
	// ComponentSolves is the number of per-component fill passes, across
	// both full and partial solves.
	ComponentSolves uint64
	// FastResolves counts single-flow demand updates absorbed without a
	// solve because the demand cap was non-binding before and after.
	FastResolves uint64
	// Skips counts Resolve calls where nothing had changed since the last
	// Solve.
	Skips uint64
}

// Network is a set of resources and the flows crossing them.
type Network struct {
	resources []*Resource
	flows     []*Flow

	// The live connected-component partition (see partition.go). live is
	// false before the first Solve and after Invalidate; then only the
	// per-resource user counts are maintained and the next Resolve runs a
	// full Solve, which rebuilds the partition.
	live  bool
	comps []*component
	dirty []*component // components queued for a refill
	free  []*component // retired components, reused to avoid allocation
	uf    []int32      // split scratch: union-find over positions
	group []*component // split scratch: component per union-find root

	// Fill scratch, reused across fills so the hot path does not allocate.
	// residual, sumW, ratio and stale are indexed by position among the
	// tight resources of the component being filled, listed in tight:
	// ratio holds residual/sumW, or +Inf where sumW ≤ eps, and stale marks
	// the ratios a freeze has invalidated. The positions fall into blocks
	// of blockSize: bmin holds each block's minimum ratio, bstale marks the
	// blocks holding a stale ratio, and btouched lists them. open lists the
	// unfrozen flows in order, byDL those with a finite demand level in
	// level order.
	residual []float64
	sumW     []float64
	ratio    []float64
	stale    []bool
	bmin     []float64
	bstale   []bool
	btouched []int32
	tight    []*Resource
	open     []*Flow
	byDL     []demandEntry

	// Resolve scratch: flows whose parameters changed since their last
	// fill, and those among them that cross no resource.
	dirtyF []*Flow
	lone   []*Flow

	// spare holds the cleared Uses arrays of removed flows, each with
	// length 0; NewFlowClass hands them to new flows so that building a
	// flow's path does not allocate in steady state.
	spare [][]Usage

	stats   SolverStats
	removed int // retired-resource count; keys unique negative indices
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{} }

// AddResource creates and registers a resource. Capacity must be
// non-negative; zero capacity models a disabled component. A resource no
// flow uses belongs to no component and costs no solver work.
func (n *Network) AddResource(name string, capacity float64) *Resource {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: invalid capacity %v for %s", capacity, name))
	}
	r := &Resource{Name: name, Capacity: capacity, index: len(n.resources)}
	n.resources = append(n.resources, r)
	return r
}

// NewFlow creates and registers a flow with the given demand cap. Use
// math.Inf(1) for an unbounded flow. The default weight is 1.
func (n *Network) NewFlow(name string, demand float64) *Flow {
	return n.NewFlowClass(name, demand, 1)
}

// NewFlowClass creates and registers a flow standing for members identical
// streams. demand is the per-member demand cap.
func (n *Network) NewFlowClass(name string, demand float64, members int) *Flow {
	if demand < 0 || math.IsNaN(demand) {
		panic(fmt.Sprintf("fluid: invalid demand %v for %s", demand, name))
	}
	if members < 1 {
		panic(fmt.Sprintf("fluid: invalid member count %d for %s", members, name))
	}
	f := &Flow{Name: name, Demand: demand, Weight: 1, members: members,
		index: len(n.flows), net: n,
		solvedDemand: math.NaN(), solvedWeight: math.NaN()}
	if k := len(n.spare); k > 0 {
		f.Uses = n.spare[k-1]
		n.spare[k-1] = nil
		n.spare = n.spare[:k-1]
	}
	n.flows = append(n.flows, f)
	return f
}

// SetMembers changes a class's stream multiplicity. The dirty scan picks the
// change up on the next Resolve, exactly like a demand or weight write.
func (n *Network) SetMembers(f *Flow, members int) {
	if members < 1 {
		panic(fmt.Sprintf("fluid: invalid member count %d for %s", members, f.Name))
	}
	f.members = members
}

// Registered reports whether f is currently part of the network. A flow
// detached by its last member's completion stays false until re-created;
// callers pooling jobs onto shared flows must check before joining, because
// an unregistered flow is invisible to the solver and never earns a rate.
func (n *Network) Registered(f *Flow) bool {
	i := f.index
	return i >= 0 && i < len(n.flows) && n.flows[i] == f
}

// RemoveFlow unregisters a flow. Its last solved rate becomes zero. The
// network takes back the flow's Uses array for reuse by a later flow: the
// array is cleared and f.Uses set to nil, so a stale reader sees an empty
// path, never another flow's usages.
func (n *Network) RemoveFlow(f *Flow) {
	if !n.Registered(f) {
		return // already removed, or foreign flow
	}
	n.unlink(f) // before the shift: components are ordered by index
	i := f.index
	copy(n.flows[i:], n.flows[i+1:])
	n.flows[len(n.flows)-1] = nil
	n.flows = n.flows[:len(n.flows)-1]
	for j := i; j < len(n.flows); j++ {
		n.flows[j].index = j
	}
	f.index = -1
	f.net = nil
	f.rate = 0
	f.memberRate = 0
	if c := cap(f.Uses); c > 0 {
		uses := f.Uses[:c]
		clear(uses)
		n.spare = append(n.spare, uses[:0])
	}
	f.Uses = nil
}

// RemoveResource unregisters a resource that no registered flow crosses
// any more — per-session state (thread limiters, for one) that would
// otherwise accumulate forever in the registration arrays. The in-use check
// is O(1): it reads the user count the partition keeps. Accumulated usage
// accounting survives: the resource keeps a unique (negative) index so
// usage reports stay deterministically ordered. Removing a resource still
// in use is a caller bug and panics.
func (n *Network) RemoveResource(r *Resource) {
	i := r.index
	if i < 0 || i >= len(n.resources) || n.resources[i] != r {
		return // already removed, or foreign resource
	}
	if r.users > 0 {
		panic(fmt.Sprintf("fluid: removing resource %s still used by %d flow usages", r.Name, r.users))
	}
	copy(n.resources[i:], n.resources[i+1:])
	n.resources[len(n.resources)-1] = nil
	n.resources = n.resources[:len(n.resources)-1]
	for j := i; j < len(n.resources); j++ {
		n.resources[j].index = j
	}
	n.removed++
	r.index = -1 - n.removed
	r.load = 0
}

// Flows returns the registered flows (shared slice; do not mutate).
func (n *Network) Flows() []*Flow { return n.flows }

// Resources returns the registered resources (shared slice; do not mutate).
func (n *Network) Resources() []*Resource { return n.resources }

const eps = 1e-12

// Solve computes the weighted max-min fair rate for every registered flow
// and the resulting load on every resource from scratch: it rebuilds the
// component partition and fills every component. Resolve runs it only on
// the first solve or after Invalidate.
//
// Implementation: each component is filled independently by weighted
// progressive filling with incremental bookkeeping. residual[i] tracks each
// resource's remaining capacity after frozen flows; sumW[i] tracks
// Σ coeff×weight×members over unfrozen flows crossing it. Freezing a flow
// subtracts its contributions once, so each iteration costs O(component)
// rather than O(resources × flows × uses).
func (n *Network) Solve() {
	n.stats.FullSolves++
	n.rebuild()
	n.lone = n.lone[:0]
	for _, f := range n.flows {
		if f.comp == nil {
			n.lone = append(n.lone, f)
		}
	}
	n.refill()
}

// refill fills every queued component, first splitting those that lost a
// flow, then the lone flows collected in n.lone. Component order does not
// matter: each fill reads and writes only its own component.
func (n *Network) refill() {
	for i := 0; i < len(n.dirty); i++ { // split appends to n.dirty
		c := n.dirty[i]
		if !c.dirty {
			continue // merged away or retired since it was queued
		}
		if c.split {
			n.split(c)
		}
		c.dirty = false
		n.fill(c.flows, c.res)
	}
	n.dirty = n.dirty[:0]
	if len(n.lone) > 0 {
		n.fill(n.lone, nil)
	}
}

// quotient is a resource's water-level headroom residual/sumW, or +Inf when
// no unfrozen flow loads it (sumW ≤ eps).
func quotient(residual, sumW float64) float64 {
	if sumW > eps {
		return residual / sumW
	}
	return math.Inf(1)
}

// blockSize is the number of ratio positions per block. A round reads one
// minimum per block and rescans only the blocks a freeze touched.
const blockSize = 16

// maxFilterUses is the most usages per resource at which a fill sorts out
// its slack resources.
const maxFilterUses = 4

// demandEntry is an open flow with a finite demand level dl = Demand/Weight
// and its position among the fill's open flows.
type demandEntry struct {
	dl  float64
	pos int32
	f   *Flow
}

// byLevel orders demand entries by (level, position); byPosition restores
// position order. Levels are finite, so plain comparisons suffice.
func byLevel(a, b demandEntry) int {
	switch {
	case a.dl < b.dl:
		return -1
	case a.dl > b.dl:
		return 1
	}
	return byPosition(a, b)
}

func byPosition(a, b demandEntry) int { return int(a.pos) - int(b.pos) }

// fill runs progressive filling over one component: its flows and
// resources, each in ascending index order. Rates outside the component are
// untouched; the arithmetic depends only on component inputs, which is what
// makes partial solves bit-identical to full ones. Flows crossing no
// resource are independent of each other and may share one call with a nil
// resource list.
//
// Only tight resources take part in the rounds. The setup pass sums each
// resource's offered demand Σ coeff×members×Demand next to sumW; a resource
// whose headroom capacity−offered exceeds 1e-9×max(capacity, sumW) is
// slack. Every flow freezes at a member rate at most its demand, so a slack
// resource's residual stays above the demand its unfrozen users still
// offer by at least that headroom. Its ratio then exceeds their lowest
// demand level L by at least 1e-9×max(1, L), and L ≥ demandLambda ≥ level,
// which clears both demandLambda+eps and the round's tolerance tol. So a
// slack resource never sets λ below the lowest demand level, never flips
// the saturation branch and never saturates: dropping it changes no
// branch, no freeze and no residual of a tight resource. Slack resources
// get pos −1 and freeze skips them; loads are still summed from the final
// rates over every usage. Where slack is unlikely (see filter below) the
// fill skips the offered sums and runs over every resource.
//
// Each round reads every tight resource's headroom residual/sumW from the
// ratio array; a freeze marks the ratios it changes stale, and the next
// read recomputes them from the same residual and sumW a division at that
// point would see. λ is the minimum of the block minima, and the saturation
// scan skips a block whose up-to-date minimum exceeds the tolerance: every
// position in it would fail the test.
//
// The open flows with a finite demand level are sorted once by (level,
// position). A round reads demandLambda at the first unfrozen entry and
// freezes the prefix at or below tol, re-sorted into position order, so
// flows freeze in the same order as a scan of every open flow would take.
// A frozen flow stays frozen, so a round that scans for saturated resources
// first drops the frozen flows from the open list.
func (n *Network) fill(flows []*Flow, res []*Resource) {
	n.stats.ComponentSolves++
	if cap(n.residual) < len(res) {
		c := max(len(res), 2*cap(n.residual)) // components grow a few resources at a time
		n.residual = make([]float64, c)
		n.sumW = make([]float64, c)
		n.ratio = make([]float64, c)
		n.stale = make([]bool, c)
		n.bmin = make([]float64, c/blockSize+1)
		n.bstale = make([]bool, c/blockSize+1)
	}
	// Sorting out the slack resources costs a multiply-subtract per usage
	// and saves work per round on each slack resource. It pays in a
	// component of finite-demand flows with few usages per resource, as in
	// a cluster. An unbounded flow makes every resource it crosses tight,
	// and flows that repeat a few resources in long tagged usage lists
	// leave little slack; there every resource counts as tight, which is
	// always exact.
	uses, filter := 0, true
	for _, f := range flows {
		uses += len(f.Uses)
		if math.IsInf(f.Demand, 1) {
			filter = false
		}
	}
	filter = filter && uses <= maxFilterUses*len(res)
	// Until the compaction below, headroom holds each resource's capacity
	// minus its offered demand, and weight its sumW.
	headroom, weight := n.residual[:len(res)], n.sumW[:len(res)]
	for i, r := range res {
		r.pos = int32(i)
		r.load = 0
		r.solvedCap = r.Capacity
		headroom[i] = r.Capacity
		weight[i] = 0
	}
	open, byDL := n.open[:0], n.byDL[:0]
	for _, f := range flows {
		f.rate = 0
		f.memberRate = 0
		f.frozen = false
		f.solvedDemand, f.solvedWeight, f.solvedMembers = f.Demand, f.Weight, f.members
		if f.Weight <= 0 {
			panic(fmt.Sprintf("fluid: flow %s has non-positive weight %v", f.Name, f.Weight))
		}
		if f.Demand <= eps {
			f.frozen = true
			continue
		}
		if dl := f.Demand / f.Weight; dl < math.Inf(1) {
			byDL = append(byDL, demandEntry{dl, int32(len(open)), f})
		}
		open = append(open, f)
		m := float64(f.members)
		ew := f.Weight * m
		if !filter {
			for _, u := range f.Uses {
				weight[u.Resource.pos] += u.Coeff * ew
			}
			continue
		}
		ed := f.Demand * m
		for _, u := range f.Uses {
			i := u.Resource.pos
			weight[i] += u.Coeff * ew
			headroom[i] -= u.Coeff * ed
		}
	}
	unfrozen := len(open)

	// Compact the tight resources to the front with their residual and
	// sumW; k counts them. tight lists them, and is res itself while none
	// is slack.
	tight, k := res, len(res)
	if filter {
		k = 0
		for i, r := range res {
			w := weight[i]
			if w <= eps || headroom[i] > 1e-9*max(r.Capacity, w) {
				if k == i { // the first slack resource
					tight = append(n.tight[:0], res[:i]...)
				}
				r.pos = -1
				continue
			}
			if k < i {
				r.pos = int32(k)
				weight[k] = w
				tight = append(tight, r)
			}
			headroom[k] = r.Capacity
			k++
		}
		if k < len(res) {
			n.tight = tight[:0]
		}
	}
	nb := (k + blockSize - 1) / blockSize
	residual, sumW, ratio, stale := headroom[:k], weight[:k], n.ratio[:k], n.stale[:k]
	bmin, bstale := n.bmin[:nb], n.bstale[:nb]
	for i := range ratio {
		ratio[i] = quotient(residual[i], sumW[i])
		stale[i] = false
	}

	// refresh recomputes block b's stale ratios and its minimum.
	refresh := func(b int) {
		m := math.Inf(1)
		for i, end := b*blockSize, min(k, (b+1)*blockSize); i < end; i++ {
			if stale[i] {
				ratio[i] = quotient(residual[i], sumW[i])
				stale[i] = false
			}
			if ratio[i] < m {
				m = ratio[i]
			}
		}
		bmin[b] = m
		bstale[b] = false
	}
	for b := range bmin {
		refresh(b)
	}
	slices.SortFunc(byDL, byLevel)

	// freeze fixes a flow's per-member rate and retires its contributions
	// from the tight resources.
	btouched := n.btouched[:0]
	freeze := func(f *Flow, memberRate float64) {
		rate := memberRate * float64(f.members)
		f.memberRate, f.rate = memberRate, rate
		f.frozen = true
		unfrozen--
		ew := f.Weight * float64(f.members)
		for _, u := range f.Uses {
			i := u.Resource.pos
			if i < 0 {
				continue // slack
			}
			sumW[i] -= u.Coeff * ew
			residual[i] -= u.Coeff * rate
			if residual[i] < 0 {
				residual[i] = 0
			}
			if sumW[i] < 0 {
				sumW[i] = 0
			}
			stale[i] = true
			if b := int(i) / blockSize; !bstale[b] {
				bstale[b] = true
				btouched = append(btouched, int32(b))
			}
		}
	}

	// level is the water level λ: every unfrozen member runs at Weight×λ.
	level := 0.0
	head := 0 // byDL[:head] is frozen
	for unfrozen > 0 {
		for _, b := range btouched {
			if bstale[b] {
				refresh(int(b))
			}
		}
		btouched = btouched[:0]
		lambda := math.Inf(1)
		for _, q := range bmin {
			if q < lambda {
				lambda = q
			}
		}
		for head < len(byDL) && byDL[head].f.frozen {
			head++
		}
		demandLambda := math.Inf(1)
		if head < len(byDL) {
			demandLambda = byDL[head].dl
		}

		target := min(lambda, demandLambda)
		if math.IsInf(target, 1) {
			// Unbounded flows with no constraining resource: deliberate
			// infinite rate.
			for _, f := range open {
				if !f.frozen {
					f.memberRate = f.Demand
					f.rate = f.Demand * float64(f.members)
					f.frozen = true
					unfrozen--
				}
			}
			break
		}
		if target < level {
			target = level // numerical guard; filling never lowers λ
		}
		level = target
		tol := level + eps*max(1, level)

		frozeAny := false
		// Demand-capped flows freeze at their per-member demand.
		end := head
		for end < len(byDL) && byDL[end].dl <= tol {
			end++
		}
		capped := byDL[head:end]
		if len(capped) > 1 {
			slices.SortFunc(capped, byPosition)
		}
		for _, e := range capped {
			if !e.f.frozen {
				freeze(e.f, e.f.Demand)
				frozeAny = true
			}
		}
		head = end
		if lambda <= demandLambda+eps {
			w := 0
			for _, f := range open {
				if !f.frozen {
					open[w] = f
					w++
				}
			}
			open = open[:w]
			// Saturated resources freeze every unfrozen flow crossing
			// them at Weight×λ per member.
			for b := range bmin {
				if bstale[b] {
					refresh(b)
				}
				if bmin[b] > tol {
					continue
				}
				for i, end := b*blockSize, min(k, (b+1)*blockSize); i < end; i++ {
					if stale[i] {
						ratio[i] = quotient(residual[i], sumW[i])
						stale[i] = false
					}
					if ratio[i] > tol {
						continue
					}
					r := tight[i]
					for _, f := range open {
						if f.frozen {
							continue
						}
						uses := false
						for _, u := range f.Uses {
							if u.Resource == r {
								uses = true
								break
							}
						}
						if uses {
							freeze(f, f.Weight*level)
							frozeAny = true
						}
					}
				}
			}
		}
		if !frozeAny {
			// Defensive: should be unreachable, but avoid an infinite loop.
			for _, f := range open {
				if !f.frozen {
					freeze(f, f.Weight*level)
				}
			}
		}
	}
	n.btouched, n.open, n.byDL = btouched[:0], open[:0], byDL[:0]

	// Compute resource loads from final rates.
	for _, f := range flows {
		rate := f.rate
		for _, u := range f.Uses {
			u.Resource.load += u.Coeff * rate
		}
	}
}

// Invalidate forces the next Resolve to run a full Solve, which rebuilds
// the partition and the user counts from every flow's Uses. Needed only
// after mutations that bypass Use: editing a Usage coefficient in place,
// swapping a Usage's Resource, or truncating Uses. Call it right after such
// an edit, before any other call on the network.
func (n *Network) Invalidate() { n.live = false }

// ResourceUtil is one resource's slice of a Utilization snapshot.
type ResourceUtil struct {
	Name     string
	Capacity float64 // resource units per second
	Load     float64 // solved aggregate consumption
	Demand   float64 // offered load Σ coeff×members×flow.Demand; +Inf if any user is unbounded
	Share    float64 // Load/Capacity; 0 for zero-capacity resources
}

// Saturated reports whether the resource is the (or a) binding constraint:
// its solved load sits at capacity within solver tolerance.
func (u ResourceUtil) Saturated() bool {
	return u.Capacity > 0 && u.Load >= u.Capacity*(1-1e-9)
}

// Utilization returns a per-resource snapshot of the current allocation in
// registration order: solved load against capacity, plus the offered demand
// (what the flows would consume if every demand cap were met). It reads the
// last-solved state and does not itself re-solve; callers that mutated the
// network should Resolve (or Sim.Refresh) first. This is the placer's
// sensor and the -utilz bottleneck-attribution dump.
func (n *Network) Utilization() []ResourceUtil {
	out := make([]ResourceUtil, len(n.resources))
	for i, r := range n.resources {
		out[i] = ResourceUtil{
			Name:     r.Name,
			Capacity: r.Capacity,
			Load:     r.load,
			Share:    r.Utilization(),
		}
	}
	for _, f := range n.flows {
		ed := f.Demand * float64(f.members)
		for _, u := range f.Uses {
			out[u.Resource.index].Demand += u.Coeff * ed
		}
	}
	return out
}

// Stats returns counters describing how Resolve calls were satisfied.
func (n *Network) Stats() SolverStats { return n.stats }

// Resolve re-solves only what changed since the last solve. Structural
// edits (arrivals, departures, Use on a registered flow) have already
// queued their components; a scan then finds parameter writes, including
// direct writes to Flow.Demand/Weight and Resource.Capacity that bypass the
// Sim setters, by comparing every flow and every resource some flow uses
// against the values its last fill read. Nothing changed: no solve. A
// single non-binding demand change: no solve either (the solved rate sits
// strictly below both old and new caps, so the max-min allocation is
// unchanged). Otherwise only the queued and parameter-dirty components are
// refilled. A full Solve runs only on the first call or after Invalidate.
// It reports whether any solving ran.
func (n *Network) Resolve() bool {
	if !n.live {
		n.Solve()
		return true
	}
	structural := len(n.dirty) > 0
	n.dirtyF = n.dirtyF[:0]
	demandOnly := true
	for _, f := range n.flows {
		if f.Demand != f.solvedDemand || f.Weight != f.solvedWeight || f.members != f.solvedMembers {
			n.dirtyF = append(n.dirtyF, f)
			if f.Weight != f.solvedWeight || f.members != f.solvedMembers {
				demandOnly = false
			}
		}
	}
	capDirty := false
	for _, c := range n.comps {
		if c.dirty {
			continue // refilled anyway; the fill re-reads every capacity
		}
		for _, r := range c.res {
			if r.Capacity != r.solvedCap {
				n.markDirty(c)
				capDirty = true
				break
			}
		}
	}
	if !structural && !capDirty {
		if len(n.dirtyF) == 0 {
			n.stats.Skips++
			return false
		}
		if f := n.dirtyF[0]; demandOnly && len(n.dirtyF) == 1 {
			// Margin keeps the fast path well clear of the solver's freeze
			// tolerance, so a from-scratch Solve would take the exact same
			// branches and reproduce the current rates bit for bit.
			margin := 1e-6 * math.Max(1, f.memberRate)
			if math.Min(f.solvedDemand, f.Demand) > f.memberRate+margin {
				f.solvedDemand = f.Demand
				n.stats.FastResolves++
				return false
			}
		}
	}
	n.stats.PartialSolves++
	n.lone = n.lone[:0]
	for _, f := range n.dirtyF {
		if f.comp != nil {
			n.markDirty(f.comp)
		} else {
			n.lone = append(n.lone, f)
		}
	}
	n.refill()
	return true
}
