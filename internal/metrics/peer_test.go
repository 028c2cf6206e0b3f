package metrics

import (
	"math"
	"testing"
)

// The two limit sets in use: rails (railmgr) and hosts (cluster).
var (
	railPeerLimits = PeerLimits{Decay: 0.3, MinSamples: 3, SuspectBelow: 0.7, DegradeBelow: 0.45, ClearAbove: 0.85, Rounds: 3}
	hostPeerLimits = PeerLimits{Decay: 0.3, MinSamples: 3, SuspectBelow: 0.5, ClearAbove: 0.8, Rounds: 2}
)

// peerRound is one Judge call on member 0 and the level expected after it.
type peerRound struct {
	ratio float64
	slow  bool
	want  PeerLevel
}

func TestPeerLadder(t *testing.T) {
	T, S, D := Trusted, Suspected, Degraded
	cases := []struct {
		name   string
		lim    PeerLimits
		rounds []peerRound
	}{
		{"rail suspected after 3 breaches", railPeerLimits, []peerRound{
			{0.6, false, T}, {0.6, false, T}, {0.6, false, S},
		}},
		{"rail breach run broken by a fair round", railPeerLimits, []peerRound{
			{0.6, false, T}, {0.6, false, T}, {0.75, false, T}, {0.6, false, T}, {0.6, false, T}, {0.6, false, S},
		}},
		{"rail slow flag breaches at a fair ratio", railPeerLimits, []peerRound{
			{1, true, T}, {1, true, T}, {1, true, S},
		}},
		{"rail degraded after 3 rounds below 0.45", railPeerLimits, []peerRound{
			{0.3, false, T}, {0.3, false, T}, {0.3, false, S},
			{0.3, false, S}, {0.3, false, S}, {0.3, false, D},
		}},
		{"rail suspect between the bands holds", railPeerLimits, []peerRound{
			{0.6, false, T}, {0.6, false, T}, {0.6, false, S},
			{0.3, false, S}, {0.3, false, S}, {0.6, false, S}, {0.3, false, S}, {0.3, false, S},
			{0.8, false, S}, {0.9, false, S}, {0.9, false, S}, {0.8, false, S},
		}},
		{"rail suspect cleared after 3 rounds above 0.85", railPeerLimits, []peerRound{
			{0.6, false, T}, {0.6, false, T}, {0.6, false, S},
			{0.9, false, S}, {0.9, false, S}, {0.9, false, T},
		}},
		{"rail slow flag blocks a clean round", railPeerLimits, []peerRound{
			{0.6, false, T}, {0.6, false, T}, {0.6, false, S},
			{0.9, false, S}, {0.9, false, S}, {0.9, true, S},
			{0.9, false, S}, {0.9, false, S}, {0.9, false, T},
		}},
		{"rail degraded cleared after 3 clean rounds", railPeerLimits, []peerRound{
			{0.3, false, T}, {0.3, false, T}, {0.3, false, S},
			{0.3, false, S}, {0.3, false, S}, {0.3, false, D},
			{0.9, false, D}, {0.9, true, D}, {0.9, false, D}, {0.9, false, D}, {0.9, false, T},
		}},
		{"host suspected after 2 breaches", hostPeerLimits, []peerRound{
			{0.6, false, T}, {0.4, false, T}, {0.6, false, T}, {0.4, false, T}, {0.4, false, S},
		}},
		{"host never degraded", hostPeerLimits, []peerRound{
			{0.1, false, T}, {0.1, false, S},
			{0.1, false, S}, {0.1, false, S}, {-1, false, S}, {-1, false, S}, {-1, false, S},
		}},
		{"host cleared after 2 rounds above 0.8", hostPeerLimits, []peerRound{
			{0.1, false, T}, {0.1, false, S},
			{0.9, false, S}, {0.7, false, S}, {0.9, false, S}, {0.9, false, T},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPeers(1, c.lim)
			prev := Trusted
			for k, r := range c.rounds {
				p.ratio[0] = r.ratio // as Cohort would have scored it
				got, moved := p.Judge(0, r.slow)
				if got != r.want || p.Level(0) != r.want {
					t.Fatalf("round %d (ratio %g, slow %v): level %d, want %d", k, r.ratio, r.slow, got, r.want)
				}
				if moved != (got != prev) {
					t.Fatalf("round %d: moved = %v going %d -> %d", k, moved, prev, got)
				}
				prev = got
			}
		})
	}
}

func TestPeerCohort(t *testing.T) {
	all := func(int) bool { return true }
	p := NewPeers(3, railPeerLimits)
	if s, _ := p.Cohort(all); s != nil {
		t.Fatalf("cohort with no samples = %v, want nil", s)
	}
	for k := 0; k < 3; k++ {
		p.Observe(0, 10)
		p.Observe(1, 20)
	}
	p.Observe(2, 1) // below MinSamples: neither judged nor evidence
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	s, med := p.Cohort(all)
	if len(s) != 2 || !near(med, 15) {
		t.Fatalf("cohort = %v median %g, want members 0 and 1 around 15", s, med)
	}
	if s[0] != 0 || s[1] != 1 || !near(p.Ratio(0), 10.0/15) || !near(p.Ratio(1), 20.0/15) {
		t.Fatalf("cohort %v ratios %g %g, want 2/3 and 4/3", s, p.Ratio(0), p.Ratio(1))
	}
	if p.Ratio(2) != 1 {
		t.Fatalf("unscored member ratio %g, want 1", p.Ratio(2))
	}
	if s, _ := p.Cohort(func(i int) bool { return i != 1 }); s != nil {
		t.Fatalf("one eligible member formed a cohort: %v", s)
	}

	z := NewPeers(2, hostPeerLimits)
	for k := 0; k < 3; k++ {
		z.Observe(0, 0)
		z.Observe(1, 0)
	}
	s, med = z.Cohort(all)
	if len(s) != 2 || med != 0 || z.Ratio(0) != 1 || z.Ratio(1) != 1 {
		t.Fatalf("zero-median cohort = %v median %g, want both at ratio 1", s, med)
	}
}

func TestPeerForget(t *testing.T) {
	p := NewPeers(2, railPeerLimits)
	for k := 0; k < 3; k++ {
		p.Observe(0, 1)
		p.Observe(1, 9)
	}
	p.Cohort(func(int) bool { return true })
	for k := 0; k < 5; k++ { // suspected, then two breaches toward Degraded
		p.Judge(0, false)
	}
	if p.Level(0) != Suspected {
		t.Fatalf("member 0 at ratio %g: level %d, want suspected", p.Ratio(0), p.Level(0))
	}
	p.Forget(0)
	if p.Level(0) != Trusted || p.Ratio(0) != 1 {
		t.Fatalf("forgotten member: level %d ratio %g", p.Level(0), p.Ratio(0))
	}
	if s, _ := p.Cohort(func(int) bool { return true }); s != nil {
		t.Fatal("forgotten member kept its rate samples")
	}
	// The breaches counted before Forget no longer move the member.
	for k := 0; k < 2; k++ {
		p.ratio[0] = 0.1
		if l, _ := p.Judge(0, false); l != Trusted {
			t.Fatalf("breach %d after Forget: level %d", k, l)
		}
	}
}
