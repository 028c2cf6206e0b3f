package fluid

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"e2edt/internal/sim"
)

// TestRemoveFlowRecyclesUses: RemoveFlow takes back the flow's Uses array,
// cleared, and the next flow is built in it.
func TestRemoveFlowRecyclesUses(t *testing.T) {
	n := NewNetwork()
	var rs []*Resource
	for i := 0; i < 5; i++ {
		rs = append(rs, n.AddResource("r", 100))
	}
	f := n.NewFlow("f", math.Inf(1))
	for _, r := range rs {
		f.UseTagged(r, 1, "x")
	}
	n.Resolve()
	backing := &f.Uses[0]
	capacity := cap(f.Uses)

	n.RemoveFlow(f)
	if f.Uses != nil {
		t.Fatalf("removed flow still holds %d usages", len(f.Uses))
	}
	g := n.NewFlow("g", math.Inf(1))
	if len(g.Uses) != 0 || cap(g.Uses) != capacity {
		t.Fatalf("new flow Uses len %d cap %d, want 0 and the freed %d", len(g.Uses), cap(g.Uses), capacity)
	}
	if &g.Uses[:1][0] != backing {
		t.Fatal("new flow did not reuse the removed flow's Uses array")
	}
	for i, u := range g.Uses[:capacity] {
		if u != (Usage{}) {
			t.Fatalf("recycled usage %d not cleared: %+v", i, u)
		}
	}
	for _, r := range rs {
		if r.users != 0 {
			t.Fatalf("resource %s keeps %d users after RemoveFlow", r.Name, r.users)
		}
	}
}

// TestStaleUsesCannotAliasRegisteredFlow: a caller that truncates and
// rebuilds a removed flow's Uses, as the placer's rebuild does for every
// tracked flow, works on a fresh array and leaves the flow that inherited
// the old one, and the partition, untouched.
func TestStaleUsesCannotAliasRegisteredFlow(t *testing.T) {
	n := NewNetwork()
	a := n.AddResource("a", 100)
	b := n.AddResource("b", 100)
	c := n.AddResource("c", 100)
	f := n.NewFlow("f", math.Inf(1))
	f.Use(a, 1).Use(b, 2)
	n.Resolve()
	n.RemoveFlow(f)

	g := n.NewFlow("g", math.Inf(1))
	g.UseTagged(b, 3, "g").UseTagged(c, 4, "g")
	want := slices.Clone(g.Uses)
	n.Resolve()

	f.Uses = f.Uses[:0]
	f.UseTagged(a, 7, "stale").UseTagged(c, 8, "stale")
	if !slices.Equal(g.Uses, want) {
		t.Fatalf("registered flow's Uses changed through a removed flow: %+v, want %+v", g.Uses, want)
	}
	if a.users != 0 || b.users != 1 || c.users != 1 {
		t.Fatalf("user counts a=%d b=%d c=%d after editing a removed flow, want 0 1 1", a.users, b.users, c.users)
	}
	n.Resolve()
	if g.Rate() != 25 {
		t.Fatalf("g rate %v, want 25 (c at 100 / coeff 4)", g.Rate())
	}
}

// TestFlowLifecycleAllocsIndependentOfUses: once warm, building and
// removing a 64-usage flow allocates no more than a flow with no usages —
// the path itself costs nothing.
func TestFlowLifecycleAllocsIndependentOfUses(t *testing.T) {
	n := NewNetwork()
	var rs []*Resource
	for i := 0; i < 8; i++ {
		rs = append(rs, n.AddResource("r", 1e9))
	}
	tags := []string{"user", "sys", "copy"}
	lifecycle := func(uses int) func() {
		return func() {
			f := n.NewFlow("f", math.Inf(1))
			for j := 0; j < uses; j++ {
				f.UseTagged(rs[j%len(rs)], 1+float64(j%3), tags[j%len(tags)])
			}
			n.Resolve()
			n.RemoveFlow(f)
			n.Resolve()
		}
	}
	n.Resolve()
	for w := 0; w < 4; w++ {
		lifecycle(64)()
	}
	empty := testing.AllocsPerRun(200, lifecycle(0))
	full := testing.AllocsPerRun(200, lifecycle(64))
	if full > empty {
		t.Fatalf("64-usage flow lifecycle allocates %v per run, a flow without usages %v", full, empty)
	}
}

// acctKey is the reference model's usage bucket.
type acctKey struct {
	r   *Resource
	tag string
}

// acctRec is the reference model's view of one transfer: a private copy of
// its usages (the flow's own Uses is recycled at detach) and the progress
// last folded.
type acctRec struct {
	tr   *Transfer
	uses []Usage
	base float64
}

// acctModel folds into a plain map exactly as the usage buckets must: same
// products, same per-bucket order.
type acctModel struct {
	ref  map[acctKey]float64
	live []*acctRec // in start order, as Sim.active
}

func (m *acctModel) fold(rec *acctRec) {
	moved := rec.tr.Transferred() - rec.base
	if moved <= 0 {
		return
	}
	for _, u := range rec.uses {
		m.ref[acctKey{u.Resource, u.Tag}] += u.Coeff * moved
	}
	rec.base = rec.tr.Transferred()
}

func (m *acctModel) retire(rec *acctRec) {
	m.fold(rec)
	m.live = slices.DeleteFunc(m.live, func(x *acctRec) bool { return x == rec })
}

func (m *acctModel) usage(r *Resource, tag string) float64 {
	total := m.ref[acctKey{r, tag}]
	for _, rec := range m.live {
		moved := rec.tr.Transferred() - rec.base
		if moved <= 0 {
			continue
		}
		for _, u := range rec.uses {
			if u.Resource == r && u.Tag == tag {
				total += u.Coeff * moved
			}
		}
	}
	return total
}

func (m *acctModel) usageByTag(filter func(*Resource) bool) map[string]float64 {
	out := make(map[string]float64)
	keys := make([]acctKey, 0, len(m.ref))
	for k := range m.ref {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b acctKey) int {
		if c := cmp.Compare(a.r.Index(), b.r.Index()); c != 0 {
			return c
		}
		return cmp.Compare(a.tag, b.tag)
	})
	for _, k := range keys {
		if filter == nil || filter(k.r) {
			out[k.tag] += m.ref[k]
		}
	}
	for _, rec := range m.live {
		moved := rec.tr.Transferred() - rec.base
		if moved <= 0 {
			continue
		}
		for _, u := range rec.uses {
			if filter == nil || filter(u.Resource) {
				out[u.Tag] += u.Coeff * moved
			}
		}
	}
	return out
}

// TestUsageMatchesReferenceMap drives seeded random starts, completions,
// cancels, resource retirements and resets, and checks Usage and
// UsageByTag against a map-based reference bit for bit: every bucket, the
// tag set and the summation order must agree.
func TestUsageMatchesReferenceMap(t *testing.T) {
	tags := []string{"", "user", "sys", "copy"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, s := newTestSim()
		m := &acctModel{ref: make(map[acctKey]float64)}
		var live, all []*Resource
		addResource := func() {
			r := s.AddResource("r", 50+float64(rng.Intn(200)))
			live = append(live, r)
			all = append(all, r)
		}
		for i := 0; i < 6; i++ {
			addResource()
		}
		check := func(op int) {
			s.Sync()
			for _, r := range all {
				for _, tag := range tags {
					if got, want := s.Usage(r, tag), m.usage(r, tag); got != want {
						t.Fatalf("seed %d op %d: Usage(%s#%d, %q) = %v, reference %v", seed, op, r.Name, r.Index(), tag, got, want)
					}
				}
			}
			odd := func(r *Resource) bool { return r.Index()%2 != 0 }
			for _, filter := range []func(*Resource) bool{nil, odd} {
				got, want := s.UsageByTag(filter), m.usageByTag(filter)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: UsageByTag has tags %v, reference %v", seed, op, got, want)
				}
				for tag, w := range want {
					if g, ok := got[tag]; !ok || g != w {
						t.Fatalf("seed %d op %d: UsageByTag[%q] = %v, reference %v", seed, op, tag, g, w)
					}
				}
			}
		}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // start a transfer over 1-6 tagged usages
				f := s.NewFlow("f", math.Inf(1))
				for j := 1 + rng.Intn(6); j > 0; j-- {
					f.UseTagged(live[rng.Intn(len(live))], 0.25+rng.Float64(), tags[rng.Intn(len(tags))])
				}
				remaining := math.Inf(1)
				if rng.Intn(4) > 0 {
					remaining = 1 + float64(rng.Intn(500))
				}
				rec := &acctRec{uses: slices.Clone(f.Uses)}
				rec.tr = &Transfer{Flow: f, Remaining: remaining, OnComplete: func(sim.Time) { m.retire(rec) }}
				m.live = append(m.live, rec)
				s.Start(rec.tr)
			case k < 7: // advance virtual time; due transfers complete
				eng.RunUntil(eng.Now() + sim.Time(0.5*rng.Float64()))
			case k == 7: // cancel
				if len(m.live) > 0 {
					rec := m.live[rng.Intn(len(m.live))]
					s.Cancel(rec.tr)
					m.retire(rec)
				}
			case k == 8: // retire an idle resource, keeping its usage
				i := rng.Intn(len(live))
				if r := live[i]; r.users == 0 && len(live) > 2 {
					s.RemoveResource(r)
					live = slices.Delete(live, i, i+1)
					addResource()
				}
			default:
				if rng.Intn(4) == 0 {
					s.ResetUsage()
					clear(m.ref)
					for _, rec := range m.live {
						rec.base = rec.tr.Transferred()
					}
				}
			}
			check(op)
		}
	}
}
