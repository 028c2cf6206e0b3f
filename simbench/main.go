// Command simbench runs one iteration of one benchmark workload in its own
// process and prints the measurements as one JSON object: host time of the
// set-up and run phases, heap bytes allocated by the run, simulated
// outcomes, exact per-layer counters, and the trace digest, checked
// against the golden digest recorded for the workload and seed.
//
// Usage:
//
//	simbench -workload cluster-steady -seed 1337            # untraced run
//	simbench -workload objstore-burst -seed 1 -traced       # + CPU profile by layer
//	simbench -record                                        # golden digests, as Go source
//
// Every -seed selects one of the workload's pinned seeds (see pinnedSeed),
// so every run's trace is checked against a recorded golden digest. The
// process exits 1 when the exactly-once audit fails or the trace digest
// differs from the golden one. run.py drives it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"e2edt/internal/sim"
	"e2edt/internal/trace"
)

// outcome is one iteration's measurements.
type outcome struct {
	Workload string `json:"workload"`
	// SeedArg is the -seed argument; Seed is the pinned seed it selects.
	SeedArg int64 `json:"seed_arg"`
	Seed    int64 `json:"seed"`
	Traced  bool  `json:"traced"`

	// Host time, seconds. SetupS holds every set-up repetition; BuildS and
	// GenerateS are their medians.
	SetupS    []float64 `json:"setup_s"`
	BuildS    float64   `json:"build_s"`
	GenerateS float64   `json:"generate_s"`
	RunS      float64   `json:"run_s"`
	AllocMB   float64   `json:"alloc_mb"`

	// Simulated outcome.
	GoodputGbps float64 `json:"goodput_gbps"`
	// Jobs counts the jobs or PUTs submitted; Lost those never delivered.
	Jobs int `json:"jobs"`
	Lost int `json:"lost"`

	TraceSHA    string `json:"trace_sha256"`
	TraceEvents uint64 `json:"trace_events"`
	// Golden is "match", "mismatch" or "none" (no digest recorded for the
	// seed); Audit is empty when the exactly-once audit passed.
	Golden string `json:"golden"`
	Audit  string `json:"audit,omitempty"`

	// Counters are exact: they repeat bit for bit across runs of a seed.
	// Timers are host-time layer measurements; Shares are CPU-profile
	// self shares by layer (traced runs only).
	Counters map[string]float64 `json:"counters"`
	Timers   map[string]float64 `json:"timers"`
	Shares   map[string]float64 `json:"shares,omitempty"`

	PeakRSSMB  float64 `json:"peak_rss_mb"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

// setupReps is how many times an iteration sets its workload up. Set-up
// costs milliseconds, so one timing is mostly noise; setup_s is the median
// of the repetitions, which are taken back to back in one warm process.
// The last set-up is the one that runs.
const setupReps = 10

// recordedSeeds is the top of the seed range 1..recordedSeeds that
// `simbench -record` pins for every workload, besides its default and
// held-out seeds.
const recordedSeeds = 64

// profileHz is the CPU profile sampling rate of traced runs: about 2,000
// samples over a full-size run, enough for steady layer shares.
const profileHz = 500

// timedTracer wraps the trace hasher and times every event it hashes.
type timedTracer struct {
	h *trace.Hasher
	d time.Duration
}

func (t *timedTracer) Event(now sim.Time, subsys, msg string) {
	t0 := time.Now()
	t.h.Event(now, subsys, msg)
	t.d += time.Since(t0)
}

func main() {
	name := flag.String("workload", "", "cluster-steady, cluster-faults, pair-sched-gray or objstore-burst")
	seed := flag.Int64("seed", 0, "workload seed: 0 = the default seed, a pinned seed runs as is, any other n runs pinned seed 1+(n-1) mod recordedSeeds")
	traced := flag.Bool("traced", false, "time the tracer, take a CPU profile and attribute it by layer")
	record := flag.Bool("record", false, "print the golden digest table for every workload's default, held-out and 1..recordedSeeds seeds")
	flag.Parse()

	if *record {
		recordGolden()
		return
	}
	w, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	o, err := measure(w, pinnedSeed(w, *seed), full, setupReps, *traced)
	if err != nil {
		fatal(err)
	}
	o.SeedArg = *seed
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		o.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	}
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		fatal(err)
	}
	if o.Audit != "" || o.Golden != "match" {
		fmt.Fprintf(os.Stderr, "simbench: %s seed %d: audit %q, golden digest %s\n", w.name, o.Seed, o.Audit, o.Golden)
		os.Exit(1)
	}
}

// measure sets the workload up `setups` times, runs the last set-up to
// completion and audits it.
func measure(w workload, seed int64, sz size, setups int, traced bool) (*outcome, error) {
	o := &outcome{
		Workload: w.name, Seed: seed, Traced: traced,
		Counters: map[string]float64{}, Timers: map[string]float64{},
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var (
		inst         *instance
		hasher       *trace.Hasher
		tt           *timedTracer
		builds, gens []float64
		tracer       sim.Tracer
		err          error
	)
	for i := 0; i < setups; i++ {
		inst = nil // the previous set-up is garbage before the next is timed
		runtime.GC()
		hasher = trace.NewHasher()
		tracer = hasher
		if traced {
			tt = &timedTracer{h: hasher}
			tracer = tt
		}
		var st setupTimes
		if inst, err = w.setup(seed, sz, tracer, &st); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		builds = append(builds, st.build.Seconds())
		gens = append(gens, st.generate.Seconds())
		o.SetupS = append(o.SetupS, (st.build + st.generate).Seconds())
	}
	o.BuildS, o.GenerateS = median(builds), median(gens)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev0 := inst.eng.Processed
	var prof bytes.Buffer
	if traced {
		// StartCPUProfile then asks for 100 Hz, which logs a warning and
		// keeps the rate set here.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	runErr := inst.run()
	o.RunS = time.Since(t0).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, runErr)
	}
	o.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	st := inst.net.Stats()
	o.Counters["sim.events"] = float64(inst.eng.Processed - ev0)
	o.Counters["fluid.full_solves"] = float64(st.FullSolves)
	o.Counters["fluid.partial_solves"] = float64(st.PartialSolves)
	o.Counters["fluid.component_fills"] = float64(st.ComponentSolves)
	o.Counters["fluid.fast_resolves"] = float64(st.FastResolves)
	o.Counters["fluid.skips"] = float64(st.Skips)
	if solves := st.FullSolves + st.PartialSolves; solves > 0 {
		o.Counters["fluid.fills_per_solve"] = float64(st.ComponentSolves) / float64(solves)
	}
	if err := inst.finish(o); err != nil {
		o.Audit = err.Error()
	}
	o.TraceSHA, o.TraceEvents = hasher.Sum(), hasher.Events()
	o.Counters["trace.events"] = float64(o.TraceEvents)
	o.Golden = checkGolden(w.name, seed, sz, o.TraceSHA, o.TraceEvents)
	if traced {
		o.Timers["trace.hash_s"] = tt.d.Seconds()
		if o.Shares, err = layerShares(prof.Bytes()); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return o, nil
}

// recordGolden runs every workload once per recorded seed and prints the
// digests in the form golden.go holds them.
func recordGolden() {
	for _, w := range workloads {
		fmt.Printf("\t%q: {\n", w.name)
		for _, seed := range recordSeeds(w) {
			o, err := measure(w, seed, full, 1, false)
			if err != nil {
				fatal(err)
			}
			if o.Audit != "" {
				fatal(fmt.Errorf("%s seed %d: %s", w.name, seed, o.Audit))
			}
			fmt.Printf("\t\t%d: {%q, %d},\n", seed, o.TraceSHA, o.TraceEvents)
		}
		fmt.Printf("\t},\n")
	}
}

// pinnedSeed maps a -seed argument onto a seed with a recorded golden
// digest, so no run goes unchecked: 0 selects the default seed, a seed that
// golden.go pins runs as is, and any other n runs pinned seed
// 1 + (n-1) mod recordedSeeds. The same argument always selects the same
// inputs.
func pinnedSeed(w workload, n int64) int64 {
	if n == 0 {
		return w.defaultSeed
	}
	if _, ok := golden[w.name][n]; ok {
		return n
	}
	m := (n - 1) % recordedSeeds
	if m < 0 {
		m += recordedSeeds
	}
	return 1 + m
}

// recordSeeds lists the seeds pinned for a workload in ascending order:
// 1..recordedSeeds plus the default and held-out seeds.
func recordSeeds(w workload) []int64 {
	var seeds []int64
	for s := int64(1); s <= recordedSeeds; s++ {
		seeds = append(seeds, s)
	}
	for _, s := range []int64{w.defaultSeed, w.heldOutSeed} {
		if s > recordedSeeds {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(2)
}
