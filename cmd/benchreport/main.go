// Command benchreport is the reproducible benchmark harness behind `make
// bench`. It measures two hot paths at several scales, each as a
// before/after pair within one binary:
//
//   - solver churn: a binding demand change plus Resolve against a
//     population of member streams, before = one solver flow per member
//     stream, after = one flow class per 100 members (flow-class
//     aggregation over the bottleneck-subgraph solve);
//   - ticker storm: steady-state periodic events, before = the plain
//     event heap, after = the timer wheel.
//
// It writes a JSON report (BENCH_PR8.json at the repository root). That
// the optimisations change no output bit is checked elsewhere, by the
// golden digests pinned in the internal/experiments and internal/xfersched
// tests.
//
// Usage:
//
//	go run ./cmd/benchreport -out BENCH_PR8.json
//	go run ./cmd/benchreport -smoke          # CI gate: fast subset + asserts
//
// Smoke mode asserts that the committed report carries the 100k-flow churn
// row with ≥10× improvement, then re-measures that point quickly and
// exits non-zero unless the live improvement is ≥10× too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"e2edt/internal/fluid"
	"e2edt/internal/sim"
)

// measurement is one benchmark in one mode.
type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// comparison is one benchmark's before/after pair.
type comparison struct {
	Name    string      `json:"name"`
	Before  measurement `json:"before"`
	After   measurement `json:"after"`
	Speedup float64     `json:"speedup"`
}

type report struct {
	PR          string       `json:"pr"`
	Generated   string       `json:"generated"`
	GoVersion   string       `json:"go_version"`
	Description string       `json:"description"`
	Benchmarks  []comparison `json:"benchmarks"`
}

// compare builds, prints and returns one before/after row.
func compare(name string, before, after measurement) comparison {
	c := comparison{Name: name, Before: before, After: after}
	if after.NsPerOp > 0 {
		c.Speedup = before.NsPerOp / after.NsPerOp
	}
	fmt.Printf("%-34s before %12.0f ns/op %6d allocs/op   after %12.0f ns/op %6d allocs/op   %6.1fx\n",
		c.Name, c.Before.NsPerOp, c.Before.AllocsPerOp,
		c.After.NsPerOp, c.After.AllocsPerOp, c.Speedup)
	return c
}

// timed runs fn once with manual instrumentation; fn returns how many
// operations it performed. The million-flow populations make
// testing.Benchmark's repeated setup probes prohibitive, so every row uses
// one warm setup per mode.
func timed(fn func() int) measurement {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ops := max(fn(), 1)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return measurement{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: int64(m1.Mallocs-m0.Mallocs) / int64(ops),
		BytesPerOp:  int64(m1.TotalAlloc-m0.TotalAlloc) / int64(ops),
		Iterations:  ops,
	}
}

const churnClassSize = 100 // member streams per flow class in the after rows

// classSizeOf keeps at least a handful of classes at small populations.
func classSizeOf(nMembers int) int {
	if nMembers < churnClassSize*8 {
		return nMembers / 8
	}
	return churnClassSize
}

// churnNetwork builds the shared 64-resource mesh plus either nMembers
// individual flows (flat) or nMembers/classSize flow classes, mirroring how
// the cluster pools same-route jobs.
func churnNetwork(nMembers int, classed bool) (*fluid.Network, []*fluid.Flow) {
	n := fluid.NewNetwork()
	rs := make([]*fluid.Resource, 64)
	for i := range rs {
		rs[i] = n.AddResource("r", 1e9+float64(i))
	}
	const uses = 4
	add := func(i, members int) *fluid.Flow {
		var f *fluid.Flow
		if members == 1 {
			f = n.NewFlow("f", 1e12)
		} else {
			f = n.NewFlowClass("c", 1e12, members)
		}
		for j := 0; j < uses; j++ {
			f.Use(rs[(i*13+j*17)%len(rs)], 0.2+float64(j)*0.1)
		}
		return f
	}
	var flows []*fluid.Flow
	if classed {
		k := classSizeOf(nMembers)
		for i := 0; i < nMembers/k; i++ {
			flows = append(flows, add(i, k))
		}
	} else {
		for i := 0; i < nMembers; i++ {
			flows = append(flows, add(i, 1))
		}
	}
	n.Resolve()
	return n, flows
}

// solverChurn measures the per-op cost of a binding demand change + Resolve
// against nMembers member streams: before = the non-aggregated path (one
// solver flow per member), after = flow classes. The 1 ↔ 1e12 toggle keeps
// min(old,new) at the flow's frozen rate, so every op runs a genuine
// bottleneck-subgraph refill rather than the non-binding fast path.
func solverChurn(name string, nMembers, flatOps, classOps int) comparison {
	run := func(classed bool, ops int) measurement {
		n, flows := churnNetwork(nMembers, classed)
		return timed(func() int {
			for i := 0; i < ops; i++ {
				f := flows[i%len(flows)]
				if i%2 == 0 {
					f.Demand = 1
				} else {
					f.Demand = 1e12
				}
				n.Resolve()
			}
			return ops
		})
	}
	before := run(false, flatOps)
	runtime.GC() // release ~nMembers flows before building the class twin
	return compare(name, before, run(true, classOps))
}

// tickerStorm measures steady-state periodic-event throughput — the
// heartbeat/probe/sampler load at cluster scale — with the heap (before)
// versus the timer wheel (after). Rescheduling closures are pre-built so
// the row isolates the event structures.
func tickerStorm(nEvents int, span sim.Duration) comparison {
	run := func(wheel bool) measurement {
		e := sim.NewEngine()
		if wheel {
			e.EnableTimerWheel(0.005, 256)
		}
		fns := make([]func(), nEvents)
		for i := 0; i < nEvents; i++ {
			iv := sim.Duration(0.4 + 0.2*float64(i%101)/100)
			idx := i
			fns[idx] = func() { e.Schedule(iv, fns[idx]) }
			e.Schedule(iv, fns[idx])
		}
		e.RunFor(1) // warm the free list and slot arrays
		p0 := e.Processed
		return timed(func() int {
			e.RunFor(span - 1)
			return int(e.Processed - p0)
		})
	}
	return compare(fmt.Sprintf("engine_ticker_storm_%dk", nEvents/1000), run(false), run(true))
}

// smoke is the CI gate: assert the committed report carries the 100k churn
// row at ≥10×, then re-measure that point quickly and assert ≥10× again.
func smoke(reportPath string) int {
	fail := 0
	check := func(ok bool, format string, args ...any) {
		if ok {
			return
		}
		fmt.Fprintf(os.Stderr, "SMOKE FAIL: "+format+"\n", args...)
		fail = 1
	}
	buf, err := os.ReadFile(reportPath)
	check(err == nil, "read %s: %v", reportPath, err)
	if err == nil {
		var rep report
		check(json.Unmarshal(buf, &rep) == nil, "parse %s", reportPath)
		found := false
		for _, b := range rep.Benchmarks {
			if strings.Contains(b.Name, "churn_100k") {
				found = true
				check(b.Speedup >= 10,
					"committed 100k churn row speedup %.1fx < 10x", b.Speedup)
			}
		}
		check(found, "no 100k-flow churn row in %s", reportPath)
	}

	live := solverChurn("solver_churn_100k_flows_smoke", 100_000, 20, 400)
	check(live.Speedup >= 10, "live 100k churn improvement %.1fx < 10x", live.Speedup)
	if fail == 0 {
		fmt.Println("bench smoke: PASS")
	}
	return fail
}

func main() {
	out := flag.String("out", "BENCH_PR8.json", "output JSON path")
	smokeMode := flag.Bool("smoke", false, "CI gate: fast churn asserts, no report write")
	flag.Parse()

	if *smokeMode {
		os.Exit(smoke(*out))
	}

	rep := report{
		PR:        "PR8",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Description: "churn rows: before = one solver flow per member stream (non-aggregated), " +
			"after = flow-class aggregation + bottleneck-subgraph solve; ticker row: heap vs timer wheel. " +
			"Same binary, same seeds.",
	}

	rep.Benchmarks = append(rep.Benchmarks,
		solverChurn("solver_churn_10k_flows", 10_000, 200, 2000),
		solverChurn("solver_churn_100k_flows", 100_000, 40, 2000),
		solverChurn("solver_churn_1m_flows", 1_000_000, 10, 1000),
		tickerStorm(100_000, 3),
	)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
