package metrics

// PeerLevel is a member's rung on the Peers verdict ladder.
type PeerLevel int

const (
	// Trusted: no standing verdict.
	Trusted PeerLevel = iota
	// Suspected: the member breached for Rounds consecutive rounds.
	Suspected
	// Degraded: a suspect that then stayed below DegradeBelow for Rounds
	// consecutive rounds.
	Degraded
)

// PeerLimits are one domain's thresholds for Peers. Ratios are a member's
// smoothed rate over the cohort median, so every threshold is relative:
// "slow" only means something against peers carrying the same workload.
type PeerLimits struct {
	// Decay is the EWMA weight of each rate sample, in (0, 1].
	Decay float64
	// MinSamples is how many rate samples a member needs before it joins
	// the cohort: a fresh member is neither judged nor used as evidence.
	MinSamples int
	// SuspectBelow: a Trusted member breaches when its ratio is below it.
	SuspectBelow float64
	// DegradeBelow: a Suspected member breaches toward Degraded when its
	// ratio is below it. Zero means the domain has no Degraded rung.
	DegradeBelow float64
	// ClearAbove: a round is clean when the ratio is above it. The gap to
	// SuspectBelow is the hysteresis band that keeps verdicts from flapping.
	ClearAbove float64
	// Rounds is how many consecutive breaching rounds move a member one
	// rung down, and how many consecutive clean rounds restore it.
	Rounds int
}

// Peers is a peer-comparison outlier scorer for a fixed set of members
// (rails, hosts). It keeps each member's decayed rate, compares it with
// the cohort median, and walks a Trusted → Suspected → Degraded ladder
// with hysteresis in both directions. The domain decides who is eligible,
// what a rate sample is, and what each verdict does.
type Peers struct {
	lim    PeerLimits
	rate   []EWMA
	ratio  []float64
	level  []PeerLevel
	breach []int // consecutive breaching rounds at the current level
	clean  []int // consecutive clean rounds at the current level
	cohort []int
	rates  []float64
}

// NewPeers returns a scorer over members 0..n-1, all Trusted.
func NewPeers(n int, lim PeerLimits) *Peers {
	p := &Peers{
		lim:    lim,
		rate:   make([]EWMA, n),
		ratio:  make([]float64, n),
		level:  make([]PeerLevel, n),
		breach: make([]int, n),
		clean:  make([]int, n),
	}
	for i := range p.rate {
		p.rate[i] = *NewEWMA(lim.Decay)
		p.ratio[i] = 1
	}
	return p
}

// Observe folds one rate sample for member i.
func (p *Peers) Observe(i int, v float64) { p.rate[i].Observe(v) }

// Cohort scores one round: it gathers every eligible member with at least
// MinSamples samples, in ascending order, and sets each one's Ratio to its
// rate over the cohort median (1 when the median is not positive). It
// returns nil when fewer than two members qualify, since one member has no
// peers. The slice is reused by the next call.
func (p *Peers) Cohort(eligible func(i int) bool) (members []int, median float64) {
	p.cohort, p.rates = p.cohort[:0], p.rates[:0]
	for i := range p.rate {
		if eligible(i) && p.rate[i].Samples() >= p.lim.MinSamples {
			p.cohort = append(p.cohort, i)
			p.rates = append(p.rates, p.rate[i].Value())
		}
	}
	if len(p.cohort) < 2 {
		return nil, 0
	}
	median = Median(p.rates)
	for _, i := range p.cohort {
		p.ratio[i] = 1
		if median > 0 {
			p.ratio[i] = p.rate[i].Value() / median
		}
	}
	return p.cohort, median
}

// Judge applies one round's verdict evidence to member i, a member of the
// cohort Cohort just returned: its Ratio, plus slow, a breach the domain
// measured itself, which also spoils a clean round. Rounds consecutive
// breaches move the member one rung down, Rounds consecutive clean rounds
// restore a suspect or degraded member to Trusted. It returns the member's
// level and whether this round moved it; every move restarts both counters.
func (p *Peers) Judge(i int, slow bool) (PeerLevel, bool) {
	l, lvl, ratio := p.lim, p.level[i], p.ratio[i]
	breach := false
	switch lvl {
	case Trusted:
		breach = ratio < l.SuspectBelow || slow
	case Suspected:
		breach = l.DegradeBelow > 0 && ratio < l.DegradeBelow
	}
	switch {
	case breach:
		p.breach[i]++
		p.clean[i] = 0
	case lvl != Trusted && ratio > l.ClearAbove && !slow:
		p.clean[i]++
		p.breach[i] = 0
	default:
		p.breach[i], p.clean[i] = 0, 0
	}
	switch {
	case p.breach[i] >= l.Rounds:
		p.Set(i, lvl+1)
	case p.clean[i] >= l.Rounds:
		p.Set(i, Trusted)
	}
	return p.level[i], p.level[i] != lvl
}

// Set puts member i on level l with both counters cleared, for domains
// whose own events (a dead link, a readmission) move the member.
func (p *Peers) Set(i int, l PeerLevel) {
	p.level[i] = l
	p.breach[i], p.clean[i] = 0, 0
}

// Forget drops member i's rate history and verdict: it starts over as a
// fresh, Trusted member with ratio 1.
func (p *Peers) Forget(i int) {
	p.rate[i].Reset()
	p.ratio[i] = 1
	p.Set(i, Trusted)
}

// Level returns member i's current rung.
func (p *Peers) Level(i int) PeerLevel { return p.level[i] }

// Flagged returns the members above Trusted, ascending (nil when none).
func (p *Peers) Flagged() []int {
	var out []int
	for i, l := range p.level {
		if l != Trusted {
			out = append(out, i)
		}
	}
	return out
}

// Ratio returns member i's ratio from the last round that scored it (1
// before any round has).
func (p *Peers) Ratio(i int) float64 { return p.ratio[i] }
