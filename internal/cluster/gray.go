package cluster

// Cluster-scale gray-failure handling: a limping host — cores slowed by a
// LimpHost fault, heartbeats intact — is invisible to the binary death
// detector, so the control plane scores every host's delivered-byte rate
// against the cohort median and applies hysteresis before a verdict. A
// suspect verdict does two things: admission penalizes the host as a
// replica source, and the shed valve holds the lowest-priority queued jobs
// until the cohort is healthy again, so scarce healthy capacity serves the
// work that matters most. Everything is gated on Cfg.Gray.Enabled: with the
// zero value no ticker is armed, no counters move, and legacy traces replay
// bit-identically.

import (
	"math"

	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

// GrayConfig switches on the host outlier scorer and the admission shed
// valve.
type GrayConfig struct {
	// Enabled arms the scorer ticker and the shed valve. Off (the zero
	// value), the cluster performs no gray accounting at all.
	Enabled bool
}

// grayLimits are the host scorer's thresholds: suspect below 0.5 of the
// cohort median, cleared above 0.8, each after 2 consecutive rounds; a host
// joins the cohort after 3 rate samples, smoothed with weight 0.3. Hosts
// have no Degraded rung.
var grayLimits = metrics.PeerLimits{
	Decay:        0.3,
	MinSamples:   3,
	SuspectBelow: 0.5,
	ClearAbove:   0.8,
	Rounds:       2,
}

const (
	// grayEvery is the scoring cadence.
	grayEvery sim.Duration = 0.25
	// shedBelow is the admission priority floor while any host is under a
	// gray verdict: queued jobs with a lower priority are held — shed —
	// until the cohort is healthy again, or until they have waited past
	// GiveUpAfter (shedding defers work, it never starves it). The lowest
	// service class sheds first.
	shedBelow = 1
)

// hostProgress returns per-host landed bytes plus the in-flight progress of
// every inbound transfer, so the rate signal is smooth instead of
// completion-quantized (a host receiving one large job would otherwise read
// zero for seconds and then spike).
func (c *Cluster) hostProgress() []float64 {
	prog := make([]float64, len(c.hosts))
	for i, hn := range c.hosts {
		prog[i] = hn.delivered.Value()
	}
	for _, sh := range c.shards {
		for _, j := range sh.running {
			if j.xfer != nil {
				prog[j.dst] += j.xfer.Transferred()
			}
		}
	}
	return prog
}

// scoreHosts runs one peer-comparison round: per-host delivered rate
// normalized by active inbound jobs, EWMA-smoothed, judged against the
// cohort median with hysteresis in both directions. Crashed or declared-dead
// hosts are reset and sit the round out — the binary detector owns them.
func (c *Cluster) scoreHosts(now sim.Time) {
	if c.done {
		return
	}
	c.FSim.Sync()
	dt := float64(grayEvery)
	prog := c.hostProgress()

	for i, hn := range c.hosts {
		if c.hostDown[i] || c.deadDeclared[i] {
			c.hostProg[i] = prog[i]
			c.gray.Forget(i)
			continue
		}
		delta := prog[i] - c.hostProg[i]
		c.hostProg[i] = prog[i]
		// An idle host with no delivery is no evidence either way; only
		// hosts carrying (or just having finished) inbound work are judged.
		if hn.dstActive > 0 || delta > 0 {
			c.gray.Observe(i, delta/dt/math.Max(1, float64(hn.dstActive)))
		}
	}

	cohort, med := c.gray.Cohort(func(i int) bool { return !c.hostDown[i] && !c.deadDeclared[i] })
	// No cohort (median 0), or a cohort that delivered nothing: no evidence
	// this round, and the valve stays as it is.
	if med <= 0 {
		return
	}
	for _, i := range cohort {
		lvl, moved := c.gray.Judge(i, false)
		switch {
		case !moved:
		case lvl == metrics.Suspected:
			c.HostSuspects++
			if c.firstHostSus < 0 {
				c.firstHostSus = now
			}
			c.Eng.Tracef("cluster", "host %d gray-suspect (rate ratio %.2f)", i, c.gray.Ratio(i))
		default:
			c.HostClears++
			c.Eng.Tracef("cluster", "host %d gray verdict cleared (rate ratio %.2f)", i, c.gray.Ratio(i))
		}
	}

	shedding := len(c.SuspectHosts()) > 0
	if shedding != c.shedding {
		c.shedding = shedding
		if shedding {
			c.Eng.Tracef("cluster", "shed valve closes: priorities below %d held", shedBelow)
		} else {
			c.Eng.Tracef("cluster", "shed valve reopens")
		}
		if !shedding {
			// Freed verdicts unblock held jobs everywhere, not just on the
			// shards that happen to scan next.
			for _, sh := range c.shards {
				sh.admit()
			}
		}
	}
}

// suspect reports whether host h is under a gray verdict.
func (c *Cluster) suspect(h int) bool { return c.gray.Level(h) != metrics.Trusted }

// shedHeld reports whether the valve holds job j this admission pass, and
// counts each job's first shed exactly once. A job that has already waited
// past GiveUpAfter passes the valve regardless: shedding trades latency for
// headroom, it never becomes starvation.
func (s *shard) shedHeld(j *job) bool {
	c := s.c
	if !c.Cfg.Gray.Enabled || !c.shedding || j.priority >= shedBelow {
		return false
	}
	if c.Eng.Now()-j.submit > sim.Time(c.Cfg.GiveUpAfter) {
		return false
	}
	if !j.shed {
		j.shed = true
		c.Shed++
		c.Eng.Tracef("cluster", "shard %d sheds job %d (priority %d)", s.id, j.id, j.priority)
	}
	return true
}

// SuspectHosts returns the ids of hosts currently under a gray verdict.
func (c *Cluster) SuspectHosts() []int { return c.gray.Flagged() }

// FirstHostSuspectAt returns the virtual time of the first host suspect
// verdict and whether one ever happened.
func (c *Cluster) FirstHostSuspectAt() (sim.Time, bool) {
	if c.firstHostSus < 0 {
		return 0, false
	}
	return c.firstHostSus, true
}

// Shedding reports whether the admission valve is currently closed.
func (c *Cluster) Shedding() bool { return c.shedding }
