package main

import (
	"fmt"
	"time"

	"e2edt/internal/cluster"
	"e2edt/internal/core"
	"e2edt/internal/fabric"
	"e2edt/internal/faults"
	"e2edt/internal/fluid"
	"e2edt/internal/objstore"
	"e2edt/internal/railmgr"
	"e2edt/internal/rftp"
	"e2edt/internal/sim"
	"e2edt/internal/units"
	"e2edt/internal/xfersched"
)

// size scales a workload. full is the benchmarked shape; the determinism
// tests run the same shape at a reduced size.
type size int

const (
	full size = iota
	small
)

// workload is one named, seeded input set driven through the public API.
type workload struct {
	name string
	// defaultSeed reproduces the canonical scenario the workload is built
	// from; heldOutSeed is recorded so a gain claimed on the default seed
	// can be re-checked on one its author did not tune against.
	defaultSeed, heldOutSeed int64
	// setup builds the system and generates its inputs, installing tr as
	// the engine's tracer before the first event can fire.
	setup func(seed int64, sz size, tr sim.Tracer, t *setupTimes) (*instance, error)
}

// setupTimes splits set-up host time into building the system and
// generating (and submitting) its inputs.
type setupTimes struct{ build, generate time.Duration }

// timed adds the host time of fn to *d.
func timed(d *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*d += time.Since(t0)
	return err
}

// instance is a set-up workload, ready to run.
type instance struct {
	eng *sim.Engine
	net *fluid.Network
	// run drives the simulation until it drains.
	run func() error
	// finish audits the drained run and fills the simulated outcome and
	// the exact per-layer counters.
	finish func(o *outcome) error
}

var workloads = []workload{
	{name: "cluster-steady", defaultSeed: 1337, heldOutSeed: 4242, setup: clusterSteady},
	{name: "cluster-faults", defaultSeed: 7, heldOutSeed: 4243, setup: clusterFaults},
	{name: "pair-sched-gray", defaultSeed: 3, heldOutSeed: 4244, setup: pairSchedGray},
	{name: "objstore-burst", defaultSeed: 1, heldOutSeed: 4245, setup: objstoreBurst},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clusterSpec is the cluster-mode input set, in the shape of
// experiments.ClusterRunSpec.
type clusterSpec struct {
	hosts, shards, tenants, jobs int
	drop                         float64
	gray                         bool
	plan                         func(*faults.Plan)
}

// clusterSteady is the S5 point: 300 hosts, 8 shards, leaf-spine, 5%
// control drop, 10 tenants and 20 jobs per host, no faults.
func clusterSteady(seed int64, sz size, tr sim.Tracer, t *setupTimes) (*instance, error) {
	spec := clusterSpec{hosts: 300, shards: 8, tenants: 3000, jobs: 6000, drop: 5}
	if sz == small {
		spec = clusterSpec{hosts: 40, shards: 4, tenants: 400, jobs: 800, drop: 5}
	}
	return setupCluster(spec, seed, tr, t)
}

// clusterFaults runs the same control plane under a crash-stop host, a
// leader crash, a three-shard partition and a limping host with the gray
// scorer and shed valve armed, as
// `xfersched -cluster -hosts 150 -shards 8 -ctenants 1500 -cjobs 3000
// -drop 5 -kill-host 7@8+8 -kill-ctrl 0@15 -partition 5,6,7@20+6
// -gray 3@8+6:0.95 -shed`.
func clusterFaults(seed int64, sz size, tr sim.Tracer, t *setupTimes) (*instance, error) {
	spec := clusterSpec{hosts: 150, shards: 8, tenants: 1500, jobs: 3000, drop: 5, gray: true}
	if sz == small {
		spec.hosts, spec.tenants, spec.jobs = 40, 400, 800
	}
	severity := 0.95 // a runtime subtraction, as the CLI parses it
	spec.plan = func(p *faults.Plan) {
		p.HostOutage(7, 8, 8)
		p.KillController(0, 15)
		p.PartitionWindow([]int{5, 6, 7}, 20, 6)
		p.LimpWindow(3, 8, 6, 1-severity)
	}
	return setupCluster(spec, seed, tr, t)
}

// setupCluster mirrors experiments.RunClusterPoint step for step, timing
// the build and the workload generation separately.
func setupCluster(spec clusterSpec, seed int64, tr sim.Tracer, t *setupTimes) (*instance, error) {
	eng := sim.NewEngine()
	eng.SetTracer(tr)
	cfg := cluster.Config{Hosts: spec.hosts, Shards: spec.shards, DropPct: spec.drop, Seed: seed}
	if spec.gray {
		cfg.Gray = cluster.GrayConfig{Enabled: true}
	}
	var c *cluster.Cluster
	if err := timed(&t.build, func() (err error) {
		c, err = cluster.New(eng, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed(&t.generate, func() error {
		err := cluster.Generate(c, cluster.WorkloadConfig{Tenants: spec.tenants, Jobs: spec.jobs, Seed: seed})
		if err != nil || spec.plan == nil {
			return err
		}
		plan := &faults.Plan{}
		spec.plan(plan)
		if err := plan.Validate(); err != nil {
			return err
		}
		plan.ApplyTo(eng, c)
		return nil
	}); err != nil {
		return nil, err
	}
	return &instance{
		eng: eng,
		net: c.FSim.Network,
		run: func() error { c.Run(); return nil },
		finish: func(o *outcome) error {
			r := c.Report()
			o.GoodputGbps = r.AggregateGoodputGbps
			o.Jobs = r.Jobs
			o.Lost = r.JobsLost
			o.Counters["cluster.ctrl_resends"] = float64(r.CtrlResends)
			o.Counters["cluster.pooled_joins"] = float64(c.PooledJoins)
			o.Counters["cluster.requeued"] = float64(r.JobsRequeued)
			o.Counters["cluster.elections"] = float64(r.Elections)
			o.Counters["cluster.host_suspects"] = float64(r.HostSuspects)
			o.Counters["cluster.shed"] = float64(r.Shed)
			o.Counters["cluster.decisions"] = float64(r.Decisions)
			o.Timers["cluster.decision_p50_us"] = r.DecisionP50us
			o.Timers["cluster.decision_p99_us"] = r.DecisionP99us
			if err := c.VerifyExactlyOnce(); err != nil {
				return err
			}
			if n := c.DegradedShards(); n != 0 {
				return fmt.Errorf("%d shards still degraded at end of run", n)
			}
			return nil
		},
	}, nil
}

// pairSchedGray is the single Figure 5 pair under the multi-tenant
// scheduler with a 70% gray sag on roce1 and hedged windows, as
// `xfersched -jobs 2000 -rate 80 -min 2GB -max 6GB -gray roce1@20:0.7 -hedge`.
func pairSchedGray(seed int64, sz size, tr sim.Tracer, t *setupTimes) (*instance, error) {
	jobs := 2000
	if sz == small {
		jobs = 120
	}
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	opt.Recovery = core.DefaultRecoveryOptions()
	opt.Recovery.Rails = railmgr.DefaultPolicy()
	opt.Recovery.Rails.Gray = railmgr.DefaultGrayPolicy()
	var sys *core.System
	var s *xfersched.Scheduler
	if err := timed(&t.build, func() (err error) {
		if sys, err = core.NewSystem(opt); err != nil {
			return err
		}
		sys.Engine().SetTracer(tr)
		cfg := xfersched.DefaultConfig().WithRecovery(opt.Recovery)
		cfg.MaxConcurrent = 4
		cfg.StreamBudget = 6
		cfg.RFTPParams.Hedge = rftp.DefaultHedgePolicy()
		s, err = xfersched.New(sys, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	tenants := []xfersched.TraceTenant{{Name: "astro", Weight: 2}, {Name: "bio", Weight: 1}, {Name: "climate", Weight: 1}}
	if err := timed(&t.generate, func() error {
		s.WithTenantWeights(tenants)
		s.SubmitTrace(xfersched.GenerateTrace(xfersched.TraceConfig{
			Seed:            seed,
			Jobs:            jobs,
			JobsPerMinute:   80,
			Tenants:         tenants,
			MinBytes:        2 * units.GB,
			MaxBytes:        6 * units.GB,
			GridFTPFraction: 0.2,
			ReverseFraction: 0.25,
			PriorityLevels:  2,
		}))
		var roce1 *fabric.Link
		for _, l := range sys.TB.FrontLinks {
			if l.Cfg.Name == "roce1" {
				roce1 = l
			}
		}
		if roce1 == nil {
			return fmt.Errorf("no front rail named roce1")
		}
		plan := &faults.Plan{}
		plan.SlowRail(roce1, 20, 0.7)
		if err := plan.Validate(); err != nil {
			return err
		}
		s.ApplyFaults(plan)
		return nil
	}); err != nil {
		return nil, err
	}
	return &instance{
		eng: sys.Engine(),
		net: sys.TB.Sim.Network,
		run: func() error {
			defer s.Close()
			if !s.RunToCompletion(7200 * sim.Second) {
				return fmt.Errorf("virtual-time budget exhausted with jobs unfinished")
			}
			return nil
		},
		finish: func(o *outcome) error {
			r := s.Report()
			o.GoodputGbps = r.AggregateGoodput * 8 / 1e9
			o.Jobs = r.Submitted
			o.Lost = r.Lost
			schedCounters(o, r)
			for i, j := range s.Jobs() {
				if j.State != xfersched.StateDone {
					return fmt.Errorf("job %d ended in state %v, want done", i, j.State)
				}
			}
			return nil
		},
	}, nil
}

// objstoreBurst is 16,384 PUTs in the objstore.DefaultWorkload shape
// through the single-pair gateway at Coalesce=16, as objsim drives it.
func objstoreBurst(seed int64, sz size, tr sim.Tracer, t *setupTimes) (*instance, error) {
	w := objstore.DefaultWorkload()
	w.Objects = 16384
	if sz == small {
		w.Objects = 1024
	}
	w.Seed = seed
	opt := core.DefaultOptions()
	opt.DatasetSize = 2 * units.GB
	var sys *core.System
	var g *objstore.Gateway
	if err := timed(&t.build, func() error {
		var err error
		if sys, err = core.NewSystem(opt); err != nil {
			return err
		}
		sys.Engine().SetTracer(tr)
		s, err := xfersched.New(sys, xfersched.DefaultConfig())
		if err != nil {
			return err
		}
		p := objstore.DefaultParams()
		p.Coalesce = 16
		g = objstore.NewGateway(s, p, core.Forward)
		return nil
	}); err != nil {
		return nil, err
	}
	start := sim.Time(sim.Second)
	var idx []int
	if err := timed(&t.generate, func() (err error) {
		idx, err = g.Put(start, w.Generate())
		return err
	}); err != nil {
		return nil, err
	}
	return &instance{
		eng: sys.Engine(),
		net: sys.TB.Sim.Network,
		run: func() error {
			defer g.Sched.Close()
			if !g.RunToCompletion(3600 * sim.Second) {
				return fmt.Errorf("burst did not drain within an hour of virtual time")
			}
			return nil
		},
		finish: func(o *outcome) error {
			var last sim.Time
			waits := make([]float64, len(idx))
			for k, i := range idx {
				at := g.DoneAt(i)
				if at > last {
					last = at
				}
				waits[k] = float64(at - start)
			}
			schedCounters(o, g.Sched.Report())
			n, bytes := g.ObjectsDone()
			o.Jobs = len(idx)
			o.Lost = len(idx) - n
			o.GoodputGbps = bytes * 8 / float64(last-start) / 1e9
			o.Counters["objstore.windows"] = float64(g.Windows)
			o.Counters["objstore.lookups"] = float64(g.Lookups)
			o.Counters["objstore.scans"] = float64(g.Scans)
			o.Counters["objstore.objects_per_window"] = float64(len(idx)) / float64(g.Windows)
			o.Counters["objstore.sim_put_p99_ms"] = quantile(waits, 0.99) * 1e3
			return g.AuditExactlyOnce()
		},
	}, nil
}

// schedCounters records the scheduler's exact counters and the rftp and
// railmgr tallies it aggregates over its jobs.
func schedCounters(o *outcome, r xfersched.Report) {
	o.Counters["xfersched.max_queue"] = float64(r.MaxQueueLen)
	o.Counters["xfersched.retries"] = float64(r.TotalRetries)
	o.Counters["xfersched.sim_p99_wait_s"] = r.P99Wait
	o.Counters["rftp.hedges"] = float64(r.TotalHedges)
	o.Counters["rftp.hedge_wins"] = float64(r.TotalHedgeWins)
	o.Counters["rftp.hedge_waste_gb"] = r.TotalHedgeWaste / 1e9
	o.Counters["railmgr.suspects"] = float64(r.TotalSuspects)
}
