package railmgr

import (
	"e2edt/internal/metrics"
	"e2edt/internal/sim"
)

// GrayPolicy switches on the peer-comparison outlier scorer. The scorer
// exists for the failure mode the probe heartbeat is structurally blind
// to: a rail that answers every probe and reports Fraction()==1, yet
// delivers a fraction of its peers' throughput (sagging optics, a limping
// NIC, a congested switch radix). No absolute threshold can catch it —
// "slow" is only meaningful relative to the cohort carrying the same
// workload — so a metrics.Peers scorer compares each rail's decayed
// per-stream delivered rate against the cohort median, this package adds
// the probe-latency check, and verdicts need grayLimits.Rounds consecutive
// rounds of evidence in either direction.
type GrayPolicy struct {
	// Enabled switches the scorer on. Off (the zero value), the manager
	// performs no gray accounting and schedules nothing extra, so legacy
	// runs replay bit-identically.
	Enabled bool
}

// DefaultGrayPolicy returns the scorer policy, enabled.
func DefaultGrayPolicy() GrayPolicy { return GrayPolicy{Enabled: true} }

// grayLimits are the rail scorer's thresholds: Suspect below 0.7 of the
// cohort median, Degraded after staying below 0.45, cleared above 0.85,
// each after 3 consecutive rounds; a rail joins the cohort after 3 rate
// samples, smoothed with weight 0.3 (which the latency EWMA shares).
var grayLimits = metrics.PeerLimits{
	Decay:        0.3,
	MinSamples:   3,
	SuspectBelow: 0.7,
	DegradeBelow: 0.45,
	ClearAbove:   0.85,
	Rounds:       3,
}

const (
	// latencyOutlier marks a round as a breach when a rail's probe latency
	// exceeds this multiple of the cohort median, catching jitter inflation
	// that leaves throughput intact.
	latencyOutlier = 3
	// minGrayWeight floors GrayWeight so a suspect rail always keeps a
	// trickle of credit; starving it entirely would destroy the very rate
	// signal needed to notice recovery.
	minGrayWeight = 0.1
)

// ObserveRate feeds one delivered-rate sample for rail i, normalized per
// active stream by the caller (the transfer's progress watchdog). The
// normalization is what makes cohort comparison load-independent: a rail
// carrying two streams legitimately delivers twice the bytes of a rail
// carrying one, and must not be judged faster for it.
func (m *Manager) ObserveRate(i int, ratePerStream float64) {
	if !m.pol.Gray.Enabled || m.stop {
		return
	}
	m.gray.Observe(i, ratePerStream)
}

// score runs one peer-comparison round over the cohort of usable rails
// with settled rate estimates. It is called from the heartbeat tick, so
// verdict cadence equals probe cadence and everything stays on the
// virtual clock.
func (m *Manager) score() {
	cohort, _ := m.gray.Cohort(func(i int) bool { return m.states[i].Usable() })
	m.lats = m.lats[:0]
	for _, i := range cohort {
		m.lats = append(m.lats, m.grayLat[i].Value())
	}
	medLat := metrics.Median(m.lats)

	for _, i := range cohort {
		// Only scorer-imposed degradations are scorer-revocable; a
		// link-layer degrade clears on the link's own up-fraction event.
		if m.states[i] == Degraded && m.gray.Level(i) != metrics.Degraded {
			continue
		}
		latRatio := 1.0
		if medLat > 0 && m.grayLat[i].Samples() > 0 {
			latRatio = m.grayLat[i].Value() / medLat
		}
		lvl, moved := m.gray.Judge(i, latRatio > latencyOutlier)
		if !moved {
			continue
		}
		switch lvl {
		case metrics.Suspected:
			m.transition(i, Suspect)
		case metrics.Degraded:
			m.GrayDegradations++
			m.transition(i, Degraded)
		case metrics.Trusted:
			m.GrayClears++
			if m.states[i] == Degraded && m.links[i].Fraction() < 1 {
				continue // still visibly degraded underneath
			}
			m.transition(i, Healthy)
		}
	}
}

// GrayWeight returns the credit-share multiplier for rail i: 1 for rails
// the scorer trusts, the clamped cohort-relative rate ratio for rails
// under a gray verdict. Arbiters multiply their fair-share weights by
// this, so a rail delivering 30% of the median keeps roughly 30% of its
// credits instead of dragging every stream pinned to it.
func (m *Manager) GrayWeight(i int) float64 {
	if !m.Suspect(i) {
		return 1
	}
	w := m.gray.Ratio(i)
	if w < minGrayWeight {
		w = minGrayWeight
	}
	if w > 1 {
		w = 1
	}
	return w
}

// Suspect reports whether rail i is currently under a gray verdict
// (Suspect, or Degraded by the scorer rather than the link layer).
func (m *Manager) Suspect(i int) bool { return m.gray.Level(i) != metrics.Trusted }

// SuspectRails returns the indices of rails under a gray verdict, ascending.
func (m *Manager) SuspectRails() []int { return m.gray.Flagged() }

// FirstSuspectAt returns the virtual time of the first Suspect entry and
// whether one ever happened — the numerator of detection latency.
func (m *Manager) FirstSuspectAt() (sim.Time, bool) {
	if m.firstSus < 0 {
		return 0, false
	}
	return m.firstSus, true
}

// RateRatio returns rail i's last cohort-relative per-stream rate ratio
// (1 before any scoring round has judged it).
func (m *Manager) RateRatio(i int) float64 { return m.gray.Ratio(i) }
