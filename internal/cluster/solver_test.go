package cluster

import (
	"testing"

	"e2edt/internal/sim"
)

// TestClusterStructuralEditsStayIncremental runs the cluster-smoke shape
// (100 hosts, 4 shards, 500 tenants, 1,000 jobs, 5% control drop) and
// requires the fluid solver to absorb every job arrival and departure
// through partial solves: one full solve for the whole run, never one per
// structural edit.
func TestClusterStructuralEditsStayIncremental(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{Hosts: 100, Shards: 4, DropPct: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Generate(c, WorkloadConfig{Tenants: 500, Jobs: 1000, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	c.Run()
	rep := c.Report()
	st := c.FSim.Network.Stats()
	if st.FullSolves > 1 {
		t.Fatalf("%d full solves for %d jobs, want at most 1 (%+v)", st.FullSolves, rep.Jobs, st)
	}
	if done := rep.Jobs - rep.JobsLost; done == 0 || st.PartialSolves < uint64(done) {
		t.Fatalf("%d jobs done but only %d partial solves (%+v)", done, st.PartialSolves, st)
	}
}
