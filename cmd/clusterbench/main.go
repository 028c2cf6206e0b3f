// Command clusterbench runs the S5 cluster-scale scenario points and emits
// BENCH_PR6.json: aggregate goodput and scheduler decision latency versus
// host count (100/300/1000 hosts), each point run twice to certify
// bit-identical replay, plus a shard sweep showing decision latency staying
// bounded as the control plane scales out. The report is always written;
// the exit status is non-zero if any point's replay was not bit-identical.
//
// Usage:
//
//	clusterbench                 # full sweep → BENCH_PR6.json
//	clusterbench -quick          # 100/300-host points only (CI-sized)
//	clusterbench -o bench.json   # alternate output path
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"e2edt/internal/experiments"
)

// scalePoint is one hosts-axis measurement.
type scalePoint struct {
	Hosts                int     `json:"hosts"`
	Shards               int     `json:"shards"`
	Tenants              int     `json:"tenants"`
	Jobs                 int     `json:"jobs"`
	VirtualSeconds       float64 `json:"virtual_seconds"`
	WallSeconds          float64 `json:"wall_seconds"`
	AggregateGoodputGbps float64 `json:"aggregate_goodput_gbps"`
	DecisionP50us        float64 `json:"decision_p50_us"`
	DecisionP99us        float64 `json:"decision_p99_us"`
	Decisions            uint64  `json:"decisions"`
	JobsLost             int     `json:"jobs_lost"`
	TraceEvents          uint64  `json:"trace_events"`
	TraceSHA256          string  `json:"trace_sha256"`
	BitIdentical         bool    `json:"bit_identical"`
}

// shardPoint is one shards-axis measurement at fixed cluster size.
type shardPoint struct {
	Shards               int     `json:"shards"`
	AggregateGoodputGbps float64 `json:"aggregate_goodput_gbps"`
	DecisionP50us        float64 `json:"decision_p50_us"`
	DecisionP99us        float64 `json:"decision_p99_us"`
	Decisions            uint64  `json:"decisions"`
	Digests              int     `json:"digests"`
	Adjusts              int     `json:"adjusts"`
}

type report struct {
	PR          string       `json:"pr"`
	Generated   string       `json:"generated"`
	GoVersion   string       `json:"go_version"`
	Description string       `json:"description"`
	Seed        int64        `json:"seed"`
	ScaleCurve  []scalePoint `json:"scale_curve"`
	ShardSweep  []shardPoint `json:"shard_sweep"`
}

func main() {
	out := flag.String("o", "BENCH_PR6.json", "output path")
	quick := flag.Bool("quick", false, "skip the 1000-host point (CI-sized run)")
	seed := flag.Int64("seed", 1337, "scenario seed (S5 uses 1337)")
	flag.Parse()

	rep := report{
		PR:        "PR6",
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Description: "Cluster-scale transfer fabric: leaf-spine topology, sharded control plane. " +
			"scale_curve holds per-host load constant (10 tenants / 20 jobs per host, 8 shards, 5% control drop); " +
			"every point runs twice and bit_identical certifies the traces hashed equal. " +
			"shard_sweep fixes 300 hosts / 3000 tenants / 6000 jobs and scales the control plane 1→8 shards; " +
			"decision latencies are wall-clock microseconds around admission passes and never enter the simulation.",
		Seed: *seed,
	}

	var diverged []int // host counts whose two runs hashed differently
	hostCounts := []int{100, 300, 1000}
	if *quick {
		hostCounts = hostCounts[:2]
	}
	for _, hosts := range hostCounts {
		spec := experiments.ClusterRunSpec{
			Hosts:   hosts,
			Shards:  8,
			Tenants: 10 * hosts,
			Jobs:    20 * hosts,
			DropPct: 5,
			Seed:    *seed,
		}
		fmt.Fprintf(os.Stderr, "clusterbench: %d hosts (%d jobs) ...\n", hosts, spec.Jobs)
		res := experiments.RunClusterPoint(spec)
		again := experiments.RunClusterPoint(spec)
		r := res.Report
		rep.ScaleCurve = append(rep.ScaleCurve, scalePoint{
			Hosts:                hosts,
			Shards:               spec.Shards,
			Tenants:              r.Tenants,
			Jobs:                 r.Jobs,
			VirtualSeconds:       r.VirtualSeconds,
			WallSeconds:          res.WallSeconds,
			AggregateGoodputGbps: r.AggregateGoodputGbps,
			DecisionP50us:        r.DecisionP50us,
			DecisionP99us:        r.DecisionP99us,
			Decisions:            r.Decisions,
			JobsLost:             r.JobsLost,
			TraceEvents:          res.TraceEvents,
			TraceSHA256:          res.TraceSHA,
			BitIdentical:         res.TraceSHA == again.TraceSHA,
		})
		if res.TraceSHA != again.TraceSHA {
			diverged = append(diverged, hosts)
			fmt.Fprintf(os.Stderr, "clusterbench: WARNING: %d-host replay NOT bit-identical\n", hosts)
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		spec := experiments.ClusterRunSpec{
			Hosts:   300,
			Shards:  shards,
			Tenants: 3000,
			Jobs:    6000,
			DropPct: 5,
			Seed:    *seed,
		}
		fmt.Fprintf(os.Stderr, "clusterbench: shard sweep K=%d ...\n", shards)
		r := experiments.RunClusterPoint(spec).Report
		rep.ShardSweep = append(rep.ShardSweep, shardPoint{
			Shards:               shards,
			AggregateGoodputGbps: r.AggregateGoodputGbps,
			DecisionP50us:        r.DecisionP50us,
			DecisionP99us:        r.DecisionP99us,
			Decisions:            r.Decisions,
			Digests:              r.Digests,
			Adjusts:              r.Adjusts,
		})
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("clusterbench: wrote %s (%d scale points, %d shard points)\n",
		*out, len(rep.ScaleCurve), len(rep.ShardSweep))
	if len(diverged) > 0 {
		fatal(fmt.Errorf("replay not bit-identical at %v hosts", diverged))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clusterbench:", err)
	os.Exit(1)
}
