package fluid

import (
	"math"
	"testing"

	"e2edt/internal/sim"
)

// benchNetwork builds a topology similar in scale to the full LAN system:
// ~200 resources, nFlows flows with ~12 usages each.
func benchNetwork(nFlows int) *Network {
	n := NewNetwork()
	resources := make([]*Resource, 200)
	for i := range resources {
		resources[i] = n.AddResource("r", 1e9+float64(i))
	}
	for i := 0; i < nFlows; i++ {
		f := n.NewFlow("f", math.Inf(1))
		for j := 0; j < 12; j++ {
			f.Use(resources[(i*13+j*17)%len(resources)], 0.2+float64(j)*0.1)
		}
	}
	return n
}

func BenchmarkSolve8Flows(b *testing.B) {
	n := benchNetwork(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Solve()
	}
}

func BenchmarkSolve64Flows(b *testing.B) {
	n := benchNetwork(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Solve()
	}
}

// benchDemandCapped builds one component shaped like a fill of the S5
// cluster workload: 50 flows with finite, mostly distinct demand caps over
// 472 resources, of which only the 12 shared NICs are tight: each NIC's
// capacity equals the demand its flows offer, so every flow stops at its
// own cap as its NIC fills up. Each flow also crosses two of 10 trunks,
// which glue the component, and 9 private resources registered far apart,
// as a cluster registers each host's resources together; trunks and
// private resources carry far less than their capacity.
func benchDemandCapped() (*Network, *component) {
	n := NewNetwork()
	trunks := make([]*Resource, 10)
	for i := range trunks {
		trunks[i] = n.AddResource("trunk", 1e13)
	}
	nics := make([]*Resource, 12)
	for i := range nics {
		nics[i] = n.AddResource("nic", 0)
	}
	private := make([]*Resource, 9*50)
	for i := range private {
		private[i] = n.AddResource("private", 1e12)
	}
	for i := 0; i < 50; i++ {
		d := 1e9 * (1 + float64(i%25)*0.04)
		f := n.NewFlow("f", d)
		f.Use(trunks[i%10], 1).Use(trunks[(i+1)%10], 1).Use(nics[i%12], 1)
		nics[i%12].Capacity += d
		for j := 0; j < 9; j++ {
			f.Use(private[j*50+i], 0.5+float64(j)*0.25)
		}
	}
	n.Solve()
	return n, n.comps[0]
}

// BenchmarkFillDemandCapped measures one progressive fill of a component
// where almost every flow stops at its own demand cap and only a few
// resources are tight.
func BenchmarkFillDemandCapped(b *testing.B) {
	n, c := benchDemandCapped()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.fill(c.flows, c.res)
	}
}

// benchChurnSim builds a Sim carrying nFlows concurrent open-ended
// transfers across a 64-resource mesh, the topology shape of the flow-class
// churn gate (TestClassChurnTenfold).
func benchChurnSim(nFlows int) (*sim.Engine, *Sim, []*Flow) {
	eng := sim.NewEngine()
	s := NewSim(eng)
	resources := make([]*Resource, 64)
	for i := range resources {
		resources[i] = s.AddResource("r", 1e9+float64(i))
	}
	flows := make([]*Flow, nFlows)
	for i := range flows {
		f := s.NewFlow("f", 2e9)
		for j := 0; j < 8; j++ {
			f.Use(resources[(i*13+j*17)%len(resources)], 0.2+float64(j)*0.1)
		}
		flows[i] = f
		s.Start(&Transfer{Flow: f, Remaining: math.Inf(1)})
	}
	return eng, s, flows
}

// BenchmarkDemandChurn1kFlows measures one credit-loop style demand update
// against 1000 concurrent flows — the Sim.reschedule hot path the
// incremental solver optimizes.
func BenchmarkDemandChurn1kFlows(b *testing.B) {
	_, s, flows := benchChurnSim(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flows[i%len(flows)]
		if i%2 == 0 {
			s.SetDemand(f, 3e9)
		} else {
			s.SetDemand(f, 2e9)
		}
	}
}

// BenchmarkTransferChurn runs start/complete cycles: the event-integration
// hot path plus a full flow lifecycle, each flow crossing 8 resources with
// 64 tagged usages, folded into the usage buckets at completion.
func BenchmarkTransferChurn(b *testing.B) {
	eng := sim.NewEngine()
	s := NewSim(eng)
	rs := make([]*Resource, 8)
	for i := range rs {
		rs[i] = s.AddResource("r", 1e9+float64(i))
	}
	tags := []string{"user", "sys", "copy"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.NewFlow("f", math.Inf(1))
		for j := 0; j < 64; j++ {
			f.UseTagged(rs[j%len(rs)], 0.1+float64(j%5)*0.05, tags[j%len(tags)])
		}
		s.Start(&Transfer{Flow: f, Remaining: 1e6})
		eng.Run()
	}
}
