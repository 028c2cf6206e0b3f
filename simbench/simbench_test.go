package main

import (
	"math"
	"reflect"
	"testing"

	"e2edt/internal/experiments"
)

func mustMeasure(t *testing.T, w workload, seed int64, sz size, traced bool) *outcome {
	t.Helper()
	o, err := measure(w, seed, sz, 1, traced)
	if err != nil {
		t.Fatal(err)
	}
	if o.Audit != "" {
		t.Fatalf("%s seed %d: audit failed: %s", w.name, seed, o.Audit)
	}
	return o
}

// TestDeterminism runs every workload shape at a reduced size twice with
// one seed and requires identical digests and exact counters, then runs a
// second seed and requires a different digest: the seed reaches the
// generator.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustMeasure(t, w, w.defaultSeed, small, false)
			b := mustMeasure(t, w, w.defaultSeed, small, false)
			if a.TraceSHA != b.TraceSHA || a.TraceEvents != b.TraceEvents {
				t.Fatalf("replay diverged: %s (%d events) vs %s (%d events)",
					a.TraceSHA, a.TraceEvents, b.TraceSHA, b.TraceEvents)
			}
			if !reflect.DeepEqual(a.Counters, b.Counters) || a.GoodputGbps != b.GoodputGbps {
				t.Fatalf("exact counters diverged:\n%v\n%v", a.Counters, b.Counters)
			}
			want := []string{"sim.events", "fluid.full_solves", "fluid.partial_solves",
				"fluid.component_fills", "fluid.fast_resolves", "fluid.skips", "trace.events"}
			if w.name == "objstore-burst" {
				want = append(want, "objstore.windows")
			}
			for _, k := range want {
				if _, ok := a.Counters[k]; !ok {
					t.Errorf("counter %s missing", k)
				}
			}
			if a.Counters["sim.events"] == 0 || a.Counters["trace.events"] == 0 {
				t.Errorf("run did no work: %v", a.Counters)
			}
			c := mustMeasure(t, w, w.heldOutSeed, small, false)
			if c.TraceSHA == a.TraceSHA {
				t.Fatalf("seeds %d and %d hash identically: the seed does not reach the generator",
					w.defaultSeed, w.heldOutSeed)
			}
		})
	}
}

// TestTracedRunMatchesUntraced checks that the tracer wrapper and the CPU
// profile leave the simulation untouched, and that the layer shares cover
// every sample exactly once.
func TestTracedRunMatchesUntraced(t *testing.T) {
	w, err := lookup("objstore-burst")
	if err != nil {
		t.Fatal(err)
	}
	plain := mustMeasure(t, w, w.defaultSeed, small, false)
	traced := mustMeasure(t, w, w.defaultSeed, small, true)
	if plain.TraceSHA != traced.TraceSHA || !reflect.DeepEqual(plain.Counters, traced.Counters) {
		t.Fatalf("tracing changed the simulation: %s vs %s", plain.TraceSHA, traced.TraceSHA)
	}
	if traced.Timers["trace.hash_s"] <= 0 {
		t.Errorf("trace.hash_s = %v, want > 0", traced.Timers["trace.hash_s"])
	}
	if len(traced.Shares) != len(layers) {
		t.Fatalf("shares %v, want one per layer %v", traced.Shares, layers)
	}
	sum := 0.0
	for _, s := range traced.Shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, traced.Shares)
	}
	if traced.Shares["fluid"] <= 0 {
		t.Errorf("fluid share %v, want > 0", traced.Shares["fluid"])
	}
}

// TestClusterMirrorsRunClusterPoint pins the benchmark's cluster set-up to
// experiments.RunClusterPoint: same inputs, same trace.
func TestClusterMirrorsRunClusterPoint(t *testing.T) {
	severity := 0.95
	cases := []struct {
		name string
		spec experiments.ClusterRunSpec
	}{
		{"cluster-steady", experiments.ClusterRunSpec{
			Hosts: 40, Shards: 4, Tenants: 400, Jobs: 800, DropPct: 5, Seed: 1337,
		}},
		{"cluster-faults", experiments.ClusterRunSpec{
			Hosts: 40, Shards: 8, Tenants: 400, Jobs: 800, DropPct: 5, Seed: 7, Gray: true,
			Chaos: &experiments.ChaosSpec{
				HostKills:  []experiments.HostKill{{Host: 7, At: 8, Down: 8}},
				CtrlKills:  []experiments.CtrlKill{{Shard: 0, At: 15}},
				Partitions: []experiments.PartitionSpec{{Shards: []int{5, 6, 7}, At: 20, For: 6}},
				Limps:      []experiments.LimpSpec{{Host: 3, At: 8, For: 6, Factor: 1 - severity}},
			},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := lookup(c.name)
			if err != nil {
				t.Fatal(err)
			}
			got := mustMeasure(t, w, c.spec.Seed, small, false)
			want := experiments.RunClusterPoint(c.spec)
			if got.TraceSHA != want.TraceSHA || got.TraceEvents != want.TraceEvents {
				t.Fatalf("benchmark %s (%d events), RunClusterPoint %s (%d events)",
					got.TraceSHA, got.TraceEvents, want.TraceSHA, want.TraceEvents)
			}
		})
	}
}

// TestGoldenCoversRecordedSeeds checks that golden.go pins every seed
// `simbench -record` records, so no seed in the range passes unchecked.
func TestGoldenCoversRecordedSeeds(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range recordSeeds(w) {
			if _, ok := golden[w.name][seed]; !ok {
				t.Errorf("%s seed %d: no golden digest recorded", w.name, seed)
			}
		}
	}
}

// TestPinnedSeed checks that every -seed argument selects a seed with a
// golden digest, and that pinned seeds run as themselves.
func TestPinnedSeed(t *testing.T) {
	args := []int64{0, 1, 63, 64, 65, 129, 1337, 4242, 123456789, -1, -64, -65,
		math.MaxInt64, math.MinInt64}
	for _, w := range workloads {
		for _, n := range args {
			seed := pinnedSeed(w, n)
			if _, ok := golden[w.name][seed]; !ok {
				t.Errorf("%s: -seed %d selects seed %d, which has no golden digest", w.name, n, seed)
			}
		}
		for _, seed := range recordSeeds(w) {
			if got := pinnedSeed(w, seed); got != seed {
				t.Errorf("%s: pinned seed %d selects %d", w.name, seed, got)
			}
		}
		if got := pinnedSeed(w, 0); got != w.defaultSeed {
			t.Errorf("%s: -seed 0 selects %d, want the default %d", w.name, got, w.defaultSeed)
		}
	}
}

// TestGoldenDigests replays every recorded full-size digest.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads take seconds each")
	}
	for _, w := range workloads {
		for _, seed := range []int64{w.defaultSeed, w.heldOutSeed} {
			if _, ok := golden[w.name][seed]; !ok {
				t.Errorf("%s seed %d: no golden digest recorded", w.name, seed)
				continue
			}
			if o := mustMeasure(t, w, seed, full, false); o.Golden != "match" {
				t.Errorf("%s seed %d: %s (%d events) does not match the golden digest",
					w.name, seed, o.TraceSHA, o.TraceEvents)
			}
		}
	}
}

func TestSampleLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "e2edt/internal/fluid.(*Network).fill", "e2edt/internal/cluster.(*shard).admit"}, "fluid"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "e2edt/internal/rftp.(*Transfer).start"}, "runtime.gc"},
		{[]string{"crypto/sha256.block", "e2edt/internal/trace.(*Hasher).Event", "main.(*timedTracer).Event", "e2edt/internal/sim.(*Engine).Tracef"}, "trace"},
		{[]string{"fmt.Sprintf", "e2edt/internal/sim.(*Engine).Tracef", "e2edt/internal/cluster.(*Cluster).finish"}, "trace"},
		{[]string{"e2edt/internal/sim.(*Engine).Run", "e2edt/internal/cluster.(*Cluster).Run"}, "sim"},
		{[]string{"e2edt/internal/iser.(*Session).submit"}, "datapath"},
		{[]string{"e2edt/internal/core.(*System).StartRFTP", "e2edt/internal/xfersched.(*Scheduler).start"}, "other"},
		{[]string{"runtime.schedule", "runtime.mcall"}, "other"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
