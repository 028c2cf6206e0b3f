package fluid

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// source supplies the choices a mutation sequence is made of: a seeded RNG
// for the randomized test, raw bytes for the fuzz target.
type source interface {
	intn(n int) int // in [0, n)
	unit() float64  // in [0, 1)
}

type rngSource struct{ *rand.Rand }

func (s rngSource) intn(n int) int { return s.Intn(n) }
func (s rngSource) unit() float64  { return s.Float64() }

// byteSource reads choices from fuzz input and yields zeros once drained.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteSource) intn(n int) int { return int(s.next()) % n }
func (s *byteSource) unit() float64  { return float64(s.next()) / 256 }

// twin holds two structurally identical networks that receive the same
// mutations: inc is driven through Resolve (incremental), ref through
// from-scratch Solve, so every mutation can be checked differentially.
type twin struct {
	inc, ref   *Network
	incF, refF []*Flow
	incR, refR []*Resource
	// invalidations counts Invalidate calls on inc, each of which buys one
	// full solve beyond the first.
	invalidations uint64
}

// newTwin builds a random network of 3..20 resources and 1..40 flows.
func newTwin(s source) *twin {
	tw := &twin{inc: NewNetwork(), ref: NewNetwork()}
	nr := 3 + s.intn(18)
	for i := 0; i < nr; i++ {
		tw.addResource(s)
	}
	nf := 1 + s.intn(40)
	for i := 0; i < nf; i++ {
		tw.addFlow(s, 1+s.intn(6))
	}
	return tw
}

func (tw *twin) addResource(s source) {
	c := math.Pow(10, 6+3*s.unit()) // 1e6 .. 1e9
	tw.incR = append(tw.incR, tw.inc.AddResource("r", c))
	tw.refR = append(tw.refR, tw.ref.AddResource("r", c))
}

// addFlow registers a flow with the given number of random usages.
func (tw *twin) addFlow(s source, uses int) {
	d := math.Inf(1)
	if s.intn(3) == 0 {
		d = math.Pow(10, 4+4*s.unit())
	}
	a, b := tw.inc.NewFlow("f", d), tw.ref.NewFlow("f", d)
	w := 0.5 + 2*s.unit()
	a.Weight, b.Weight = w, w
	for j := 0; j < uses; j++ {
		tw.use(s, a, b)
	}
	tw.incF, tw.refF = append(tw.incF, a), append(tw.refF, b)
}

// use adds the same random usage to a (in inc) and b (in ref).
func (tw *twin) use(s source, a, b *Flow) {
	ri := s.intn(len(tw.incR))
	coeff := 0.25 + s.unit()
	a.Use(tw.incR[ri], coeff)
	b.Use(tw.refR[ri], coeff)
}

func (tw *twin) setMembers(i, m int) {
	tw.inc.SetMembers(tw.incF[i], m)
	tw.ref.SetMembers(tw.refF[i], m)
}

// mutate applies one random mutation to both networks: parameter writes
// (direct field writes, bypassing the setters) and structural edits.
func (tw *twin) mutate(s source) {
	switch k := s.intn(20); {
	case k < 6: // demand change, mostly non-binding (the fast path)
		i := s.intn(len(tw.incF))
		var d float64
		switch s.intn(4) {
		case 0: // binding: below the current fair share
			d = tw.incF[i].rate * (0.1 + 0.8*s.unit())
		case 1: // same value: pure no-op
			d = tw.incF[i].Demand
		default: // far above any achievable rate
			d = math.Pow(10, 10+2*s.unit())
		}
		if d < 0 || math.IsNaN(d) {
			d = 1
		}
		tw.incF[i].Demand = d // direct write: the dirty scan must see it
		tw.refF[i].Demand = d
	case k < 7: // weight change
		i := s.intn(len(tw.incF))
		w := 0.5 + 2*s.unit()
		tw.incF[i].Weight = w
		tw.refF[i].Weight = w
	case k < 9: // capacity change
		i := s.intn(len(tw.incR))
		c := math.Pow(10, 6+3*s.unit())
		tw.incR[i].Capacity = c
		tw.refR[i].Capacity = c
	case k < 11 && len(tw.incF) > 1: // departure: its component may split
		i := s.intn(len(tw.incF))
		tw.inc.RemoveFlow(tw.incF[i])
		tw.ref.RemoveFlow(tw.refF[i])
		tw.incF = slices.Delete(tw.incF, i, i+1)
		tw.refF = slices.Delete(tw.refF, i, i+1)
	case k < 13: // arrival on several resources: components may merge
		tw.addFlow(s, 2+s.intn(3))
	case k < 14: // Use on a flow that has already been solved
		i := s.intn(len(tw.incF))
		tw.use(s, tw.incF[i], tw.refF[i])
	case k < 15: // class join or leave
		i := s.intn(len(tw.incF))
		m := tw.incF[i].members + 1
		if s.intn(2) == 0 && m > 2 {
			m -= 2
		}
		tw.setMembers(i, m)
	case k < 16: // pooled join: a twin of flow i is built, discarded before
		// any Resolve, and flow i gains a member instead. The twin may
		// also cross one extra resource, merging components it leaves.
		i := s.intn(len(tw.incF))
		a := tw.inc.NewFlow("twin", tw.incF[i].Demand)
		b := tw.ref.NewFlow("twin", tw.refF[i].Demand)
		for j, u := range tw.incF[i].Uses {
			a.Use(u.Resource, u.Coeff)
			b.Use(tw.refF[i].Uses[j].Resource, u.Coeff)
		}
		if s.intn(2) == 0 {
			tw.use(s, a, b)
		}
		tw.inc.RemoveFlow(a)
		tw.ref.RemoveFlow(b)
		tw.setMembers(i, tw.incF[i].members+1)
	case k < 17: // a new resource, used by nothing yet
		tw.addResource(s)
	case k < 18: // retire a resource no flow uses any more
		var idle []int
		for i, r := range tw.incR {
			if r.users == 0 {
				idle = append(idle, i)
			}
		}
		if len(idle) == 0 || len(tw.incR) == len(idle) {
			return // keep at least one resource in use
		}
		i := idle[s.intn(len(idle))]
		tw.inc.RemoveResource(tw.incR[i])
		tw.ref.RemoveResource(tw.refR[i])
		tw.incR = slices.Delete(tw.incR, i, i+1)
		tw.refR = slices.Delete(tw.refR, i, i+1)
	case k < 19 && s.intn(4) == 0: // the escape hatch for in-place edits
		tw.inc.Invalidate()
		tw.invalidations++
	default: // arrival on one resource
		tw.addFlow(s, 1)
	}
}

// step re-solves both networks and checks them against each other.
func (tw *twin) step(t *testing.T, seed, op int) {
	t.Helper()
	tw.inc.Resolve()
	tw.ref.Solve()
	ratesMatch(t, tw.inc, tw.ref, seed, op)
	partitionMatches(t, tw.inc, seed, op)
	if st := tw.inc.Stats(); st.FullSolves != 1+tw.invalidations {
		t.Fatalf("seed %d op %d: %d full solves, want %d (1 + %d Invalidate)",
			seed, op, st.FullSolves, 1+tw.invalidations, tw.invalidations)
	}
}

// ratesMatch requires bit-identical rates and loads: the incremental path
// refills components with the same flows and resources in the same order
// as a from-scratch solve, so no tolerance is needed.
func ratesMatch(t *testing.T, inc, ref *Network, seed, op int) {
	t.Helper()
	if len(inc.flows) != len(ref.flows) {
		t.Fatalf("seed %d op %d: flow populations diverged", seed, op)
	}
	for i := range inc.flows {
		if a, b := inc.flows[i].rate, ref.flows[i].rate; a != b {
			t.Fatalf("seed %d op %d: flow %d rate %g (incremental) vs %g (full)",
				seed, op, i, a, b)
		}
	}
	for i := range inc.resources {
		if a, b := inc.resources[i].load, ref.resources[i].load; a != b {
			t.Fatalf("seed %d op %d: resource %d load %g vs %g", seed, op, i, a, b)
		}
	}
}

// partitionMatches checks the live partition against one recomputed
// naively from every flow's Uses: the same user counts, one component per
// connected group of used resources, unused resources in none, and every
// component's lists ascending by index.
func partitionMatches(t *testing.T, n *Network, seed, op int) {
	t.Helper()
	parent := make([]int, len(n.resources))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	users := make([]int32, len(n.resources))
	for _, f := range n.flows {
		for _, u := range f.Uses {
			users[u.Resource.index]++
			parent[find(u.Resource.index)] = find(f.Uses[0].Resource.index)
		}
	}
	owner := make([]*component, len(n.resources)) // naive root → component
	for _, c := range n.comps {
		root := find(c.res[0].index)
		if owner[root] != nil {
			t.Fatalf("seed %d op %d: connected resources split across components", seed, op)
		}
		owner[root] = c
		for i, r := range c.res {
			if r.comp != c || find(r.index) != root || i > 0 && c.res[i-1].index >= r.index {
				t.Fatalf("seed %d op %d: component resource list corrupt, unsorted or disconnected", seed, op)
			}
		}
		for i, f := range c.flows {
			if f.comp != c || i > 0 && c.flows[i-1].index >= f.index {
				t.Fatalf("seed %d op %d: component flow list corrupt or unsorted", seed, op)
			}
		}
	}
	for i, r := range n.resources {
		if r.users != users[i] {
			t.Fatalf("seed %d op %d: resource %d counts %d users, want %d", seed, op, i, r.users, users[i])
		}
		if (r.comp == nil) != (users[i] == 0) || r.comp != nil && owner[find(i)] != r.comp {
			t.Fatalf("seed %d op %d: resource %d with %d users in the wrong component", seed, op, i, users[i])
		}
	}
	for _, f := range n.flows {
		if len(f.Uses) == 0 && f.comp != nil || len(f.Uses) > 0 && f.comp != f.Uses[0].Resource.comp {
			t.Fatalf("seed %d op %d: flow %d in the wrong component", seed, op, f.index)
		}
	}
}

// TestIncrementalMatchesFullSolve is the randomized differential test for
// the incremental solver: across seeded topologies and mutation sequences
// (demand changes binding and non-binding, weight and capacity changes,
// direct field writes bypassing the setters, arrivals that merge
// components, departures that split them, Use on solved flows, class joins
// and leaves, pooled-join twins, added and retired resources), Resolve must
// produce rates bit-identical to a from-scratch Solve on an identical twin
// network, keep a partition equal to a recomputed one, and run no full
// solve beyond the first unless Invalidate asks for one.
func TestIncrementalMatchesFullSolve(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		s := rngSource{rand.New(rand.NewSource(int64(seed)))}
		tw := newTwin(s)
		tw.step(t, seed, -1)
		for op := 0; op < 200; op++ {
			tw.mutate(s)
			tw.step(t, seed, op)
		}
		if st := tw.inc.Stats(); st.Skips == 0 && st.FastResolves == 0 {
			t.Fatalf("seed %d: incremental paths never taken (%+v)", seed, st)
		}
	}
}

// FuzzResolveMatchesSolve decodes fuzz input into a twin network and a
// mutation sequence, and checks Resolve against a from-scratch Solve bit
// for bit after every mutation.
func FuzzResolveMatchesSolve(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSource{b: data}
		tw := newTwin(s)
		tw.step(t, 0, -1)
		for op := 0; op < 100 && len(s.b) > 0; op++ {
			tw.mutate(s)
			tw.step(t, 0, op)
		}
	})
}

// TestRemoveResourceUserCount: RemoveResource's O(1) in-use check reads the
// per-resource user count, which must track Use before the first solve,
// duplicate usages, and departures.
func TestRemoveResourceUserCount(t *testing.T) {
	n := NewNetwork()
	link := n.AddResource("link", 100)
	lim := n.AddResource("limiter", 40)
	f := n.NewFlow("f", math.Inf(1)).Use(link, 1).Use(lim, 1).Use(lim, 0.5)
	mustPanic := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("RemoveResource of a used resource %s did not panic", when)
			}
		}()
		n.RemoveResource(lim)
	}
	mustPanic("before any solve")
	n.Resolve()
	mustPanic("after a solve")
	n.RemoveFlow(f)
	n.RemoveResource(lim)
	if lim.Index() >= 0 || len(n.Resources()) != 1 {
		t.Fatalf("retired resource still registered (index %d)", lim.Index())
	}
	g := n.NewFlow("g", math.Inf(1)).Use(link, 1)
	n.Resolve()
	if g.Rate() != 100 || link.Load() != 100 {
		t.Fatalf("rate %v load %v after retiring the limiter, want 100/100", g.Rate(), link.Load())
	}
	if st := n.Stats(); st.FullSolves != 1 {
		t.Fatalf("structural edits ran %d full solves, want 1", st.FullSolves)
	}
}

// TestResolveSkipsWhenUnchanged: a Resolve with no state change must not
// re-run the solver, and must leave rates bit-identical.
func TestResolveSkipsWhenUnchanged(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f1 := n.NewFlow("a", math.Inf(1))
	f1.Use(r, 1)
	f2 := n.NewFlow("b", 30)
	f2.Use(r, 1)
	if !n.Resolve() {
		t.Fatal("first Resolve must solve")
	}
	before := [2]float64{f1.rate, f2.rate}
	solves := n.Stats().FullSolves
	for i := 0; i < 5; i++ {
		if n.Resolve() {
			t.Fatal("Resolve re-solved with nothing changed")
		}
	}
	if n.Stats().FullSolves != solves || n.Stats().Skips != 5 {
		t.Fatalf("stats = %+v, want %d solves and 5 skips", n.Stats(), solves)
	}
	if f1.rate != before[0] || f2.rate != before[1] {
		t.Fatal("skipped Resolve perturbed rates")
	}
}

// TestResolveFastPathNonBindingDemand: raising or lowering a demand cap
// that stays strictly above the flow's solved rate is absorbed without a
// solve and leaves every rate bit-identical; a binding change re-solves.
func TestResolveFastPathNonBindingDemand(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	var flows []*Flow
	for i := 0; i < 4; i++ {
		f := n.NewFlow("f", 1000) // fair share will be 25 ≪ 1000
		f.Use(r, 1)
		flows = append(flows, f)
	}
	n.Resolve()
	if got := flows[0].rate; got != 25 {
		t.Fatalf("fair share = %v, want 25", got)
	}
	flows[0].Demand = 500 // still ≫ 25: non-binding
	if n.Resolve() {
		t.Fatal("non-binding demand change triggered a full solve")
	}
	if n.Stats().FastResolves != 1 {
		t.Fatalf("stats = %+v, want 1 fast resolve", n.Stats())
	}
	for _, f := range flows {
		if f.rate != 25 {
			t.Fatalf("rate perturbed to %v by fast path", f.rate)
		}
	}
	// And the fast path must not have gone stale: a binding change next.
	flows[0].Demand = 10
	if !n.Resolve() {
		t.Fatal("binding demand change skipped the solver")
	}
	if flows[0].rate != 10 || flows[1].rate != 30 {
		t.Fatalf("rates = %v/%v, want 10/30", flows[0].rate, flows[1].rate)
	}
}

// TestResolveSeesDirectMutation: writes that bypass the Sim setters
// (tcpstack writes Flow.Demand directly; tests write Resource.Capacity)
// are caught by the parameter scan.
func TestResolveSeesDirectMutation(t *testing.T) {
	n := NewNetwork()
	r := n.AddResource("link", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(r, 1)
	n.Resolve()
	if f.rate != 100 {
		t.Fatalf("rate = %v, want 100", f.rate)
	}
	r.Capacity = 40
	n.Resolve()
	if f.rate != 40 {
		t.Fatalf("rate = %v after direct capacity write, want 40", f.rate)
	}
	f.Weight = 2 // weight-only change must also be seen
	n.Resolve()
	// Parameter writes now resolve through the bottleneck-subgraph path:
	// the first Resolve is the full solve, the two writes are partials.
	if st := n.Stats(); st.FullSolves+st.PartialSolves != 3 || st.Skips != 0 {
		t.Fatalf("stats = %+v, want the 2 direct writes solved (1 full + 2 partial)", st)
	}
	// A Use added after a solve changes the usage set.
	r2 := n.AddResource("cpu", 10)
	f.Use(r2, 1)
	n.Resolve()
	if f.rate != 10 {
		t.Fatalf("rate = %v after new usage, want CPU-capped 10", f.rate)
	}
}

// directRates solves n the way the solver did before the ratio array: a
// naive union-find partition, then per component a progressive fill that
// divides residual by sumW afresh at every read. It returns every flow's
// rate, for checking the ratio array bit for bit.
func directRates(n *Network) []float64 {
	parent := make([]int, len(n.resources))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	used := make([]bool, len(n.resources))
	for _, f := range n.flows {
		for _, u := range f.Uses {
			used[u.Resource.index] = true
			parent[find(u.Resource.index)] = find(f.Uses[0].Resource.index)
		}
	}
	flowsOf, resOf := map[int][]int{}, map[int][]int{}
	var lone []int
	for i, f := range n.flows {
		if len(f.Uses) == 0 {
			lone = append(lone, i)
		} else {
			root := find(f.Uses[0].Resource.index)
			flowsOf[root] = append(flowsOf[root], i)
		}
	}
	for i := range n.resources {
		if used[i] {
			resOf[find(i)] = append(resOf[find(i)], i)
		}
	}
	rates := make([]float64, len(n.flows))
	for root, fidx := range flowsOf {
		directFill(n, fidx, resOf[root], rates)
	}
	directFill(n, lone, nil, rates)
	return rates
}

// directFill is one component's progressive fill with direct division.
func directFill(n *Network, fidx, ridx []int, rates []float64) {
	residual := make([]float64, len(n.resources))
	sumW := make([]float64, len(n.resources))
	frozen := make([]bool, len(n.flows))
	for _, ri := range ridx {
		residual[ri] = n.resources[ri].Capacity
	}
	unfrozen := 0
	for _, fi := range fidx {
		f := n.flows[fi]
		if f.Demand <= eps {
			frozen[fi] = true
			continue
		}
		unfrozen++
		ew := f.Weight * float64(f.members)
		for _, u := range f.Uses {
			sumW[u.Resource.index] += u.Coeff * ew
		}
	}
	freeze := func(fi int, memberRate float64) {
		f := n.flows[fi]
		rates[fi] = memberRate * float64(f.members)
		frozen[fi] = true
		unfrozen--
		ew := f.Weight * float64(f.members)
		for _, u := range f.Uses {
			i := u.Resource.index
			sumW[i] -= u.Coeff * ew
			residual[i] -= u.Coeff * rates[fi]
			residual[i] = math.Max(residual[i], 0)
			sumW[i] = math.Max(sumW[i], 0)
		}
	}
	level := 0.0
	for unfrozen > 0 {
		lambda, demandLambda := math.Inf(1), math.Inf(1)
		for _, ri := range ridx {
			if sumW[ri] > eps {
				lambda = math.Min(lambda, residual[ri]/sumW[ri])
			}
		}
		for _, fi := range fidx {
			if f := n.flows[fi]; !frozen[fi] {
				demandLambda = math.Min(demandLambda, f.Demand/f.Weight)
			}
		}
		target := math.Min(lambda, demandLambda)
		if math.IsInf(target, 1) {
			for _, fi := range fidx {
				if !frozen[fi] {
					rates[fi] = n.flows[fi].Demand * float64(n.flows[fi].members)
					frozen[fi] = true
					unfrozen--
				}
			}
			break
		}
		level = math.Max(level, target)
		tol := level + eps*math.Max(1, level)
		frozeAny := false
		for _, fi := range fidx {
			if f := n.flows[fi]; !frozen[fi] && f.Demand/f.Weight <= tol {
				freeze(fi, f.Demand)
				frozeAny = true
			}
		}
		if lambda <= demandLambda+eps {
			for _, ri := range ridx {
				if sumW[ri] <= eps || residual[ri]/sumW[ri] > tol {
					continue
				}
				for _, fi := range fidx {
					if frozen[fi] {
						continue
					}
					for _, u := range n.flows[fi].Uses {
						if u.Resource.index == ri {
							freeze(fi, n.flows[fi].Weight*level)
							frozeAny = true
							break
						}
					}
				}
			}
		}
		if !frozeAny {
			for _, fi := range fidx {
				if !frozen[fi] {
					freeze(fi, n.flows[fi].Weight*level)
				}
			}
		}
	}
}

// boundaryDeltas are relative offsets of a resource's offered demand from
// its capacity, straddling fill's tight/slack threshold.
var boundaryDeltas = []float64{-1e-6, -1e-9, -1e-10, -1e-12, 0, 1e-12, 1e-9}

// boundaryLevels are base demand levels: below 1, where the fill's
// tolerances are absolute, around 1, and above 1e9.
var boundaryLevels = []float64{1e-7, 3e-4, 0.25, 1, 7, 1e6, 2e9, 3e11}

// newBoundaryTwin builds a twin whose capacities sit at fill's tight/slack
// boundary. Demand levels repeat a few base levels, often nudged within the
// fill's tolerance eps×max(1, level); some flows are classes of several
// members and some are unbounded. Once the paths are built, every resource
// gets capacity = offered demand × (1 − δ) for a boundary δ, or several
// times its offered demand, which makes it slack.
func newBoundaryTwin(s source) *twin {
	tw := &twin{inc: NewNetwork(), ref: NewNetwork()}
	nr := 4 + s.intn(40)
	for i := 0; i < nr; i++ {
		tw.addResource(s)
	}
	nf := 2 + s.intn(30)
	for i := 0; i < nf; i++ {
		w := 0.5 + 2*s.unit()
		level := boundaryLevels[s.intn(len(boundaryLevels))]
		switch s.intn(3) {
		case 0: // tied with the base level within eps
			level += eps * max(1, level) * s.unit()
		case 1:
			level *= 1 + s.unit()
		}
		d := level * w
		if s.intn(8) == 0 {
			d = math.Inf(1)
		}
		m := 1 + s.intn(4)
		a, b := tw.inc.NewFlowClass("f", d, m), tw.ref.NewFlowClass("f", d, m)
		a.Weight, b.Weight = w, w
		for j := 1 + s.intn(5); j > 0; j-- {
			tw.use(s, a, b)
		}
		tw.incF, tw.refF = append(tw.incF, a), append(tw.refF, b)
	}
	offered := make([]float64, nr)
	for _, f := range tw.incF {
		for _, u := range f.Uses {
			offered[u.Resource.index] += u.Coeff * float64(f.members) * f.Demand
		}
	}
	for i, o := range offered {
		if o == 0 || math.IsInf(o, 1) {
			continue // unused, or loaded by an unbounded flow: always tight
		}
		c := o * (2 + 8*s.unit())
		if s.intn(2) == 0 {
			c = o * (1 - boundaryDeltas[s.intn(len(boundaryDeltas))])
		}
		tw.incR[i].Capacity, tw.refR[i].Capacity = c, c
	}
	return tw
}

// checkDirect requires n's solved rates to equal directRates bit for bit.
func checkDirect(t *testing.T, n *Network, seed, op int) {
	t.Helper()
	want := directRates(n)
	for i, f := range n.flows {
		if f.rate != want[i] {
			t.Fatalf("seed %d op %d: flow %d rate %g, direct division gives %g",
				seed, op, i, f.rate, want[i])
		}
	}
}

// TestFillMatchesDirectDivision: reading residual/sumW from the ratio
// array, refreshed when read after a freeze, and skipping blocks by their
// minimum, is the same quotient read in the same order as dividing at
// every read; filling over the tight resources only, with the demand
// levels sorted once, takes the same branches as filling over all of them.
// So rates agree bit for bit. Half the random seeds grow the network to
// span many ratio blocks; the boundary seeds put capacities at the
// tight/slack threshold.
func TestFillMatchesDirectDivision(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		s := rngSource{rand.New(rand.NewSource(int64(seed)))}
		tw := newTwin(s)
		if seed%2 == 1 {
			for i := 0; i < 150; i++ {
				tw.addResource(s)
			}
			for i := 0; i < 80; i++ {
				tw.addFlow(s, 1+s.intn(6))
			}
		}
		for op := 0; op < 60; op++ {
			tw.inc.Resolve()
			checkDirect(t, tw.inc, seed, op)
			tw.mutate(s)
		}
	}
	for seed := 0; seed < 400; seed++ {
		s := rngSource{rand.New(rand.NewSource(int64(seed)))}
		tw := newBoundaryTwin(s)
		for op := 0; op < 5; op++ {
			tw.inc.Resolve()
			checkDirect(t, tw.inc, 1000+seed, op)
			tw.mutate(s)
		}
	}
}

// FuzzFillMatchesDirect decodes fuzz input into a boundary twin and a few
// mutations, and checks the fill against direct division over every
// resource bit for bit after each.
func FuzzFillMatchesDirect(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSource{b: data}
		tw := newBoundaryTwin(s)
		for op := 0; op < 5; op++ {
			tw.inc.Resolve()
			checkDirect(t, tw.inc, 0, op)
			tw.mutate(s)
		}
	})
}
