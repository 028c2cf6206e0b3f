package sim

import (
	"math/rand"
	"testing"
)

// stormRun drives one engine through a seeded schedule/cancel storm and
// returns the exact firing sequence. Both storm halves (initial schedule and
// in-callback reschedule/cancel) draw from the same deterministic stream, so
// two engines fed the same seed must produce identical logs — unless their
// event ordering diverges.
func stormRun(e *Engine, seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	var log []int
	// live tracks only genuinely pending events by id: fired events remove
	// themselves, cancelled ones are removed at cancel time, so the storm
	// never dereferences a recycled Event struct.
	type pend struct {
		id int
		ev *Event
	}
	var live []pend
	remove := func(id int) {
		for i := range live {
			if live[i].id == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	id := 0
	var schedule func(at Time)
	schedule = func(at Time) {
		myID := id
		id++
		ev := e.At(at, func() {
			remove(myID)
			log = append(log, myID)
			switch rng.Intn(4) {
			case 0:
				if id < n*4 {
					at := e.Now() + Time(rng.Float64()*40)
					if rng.Intn(2) == 0 { // quantized: exact-tie stress
						at = e.Now() + Time(rng.Intn(160))*0.25
					}
					schedule(at)
				}
			case 1:
				if len(live) > 0 {
					j := rng.Intn(len(live))
					e.Cancel(live[j].ev)
					live = append(live[:j], live[j+1:]...)
				}
			}
		})
		live = append(live, pend{myID, ev})
	}
	for i := 0; i < n; i++ {
		at := Time(rng.Float64() * 30)
		if rng.Intn(2) == 0 {
			at = Time(rng.Intn(120)) * 0.25
		}
		schedule(at)
	}
	e.Run()
	return log
}

// TestWheelMatchesHeapOrder: under a randomized schedule/cancel storm with
// exact time ties, reschedules from callbacks, and events past the wheel
// horizon, a wheel-enabled engine must fire the identical event sequence as
// a heap-only engine.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		hp := NewEngine()
		wl := NewEngine()
		wl.EnableTimerWheel(0.25, 64) // horizon 16 « max event time
		if !wl.WheelEnabled() || hp.WheelEnabled() {
			t.Fatal("wheel knob state wrong")
		}
		a := stormRun(hp, seed, 200)
		b := stormRun(wl, seed, 200)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d events fired on heap, %d on wheel", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: firing order diverged at %d: heap %d, wheel %d",
					seed, i, a[i], b[i])
			}
		}
		if hp.Now() != wl.Now() || wl.Pending() != 0 {
			t.Fatalf("seed %d: clocks %v vs %v, wheel pending %d",
				seed, hp.Now(), wl.Now(), wl.Pending())
		}
	}
}

// TestWheelStopResumeContract: events bypassed when Stop() halts a RunUntil
// stay queued — including events parked in wheel slots whose window then
// passes — and fire when processing resumes, exactly as on the plain heap.
func TestWheelStopResumeContract(t *testing.T) {
	run := func(e *Engine) []Time {
		var fired []Time
		for i := 1; i <= 12; i++ {
			at := Time(i)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.At(3.5, func() { e.Stop() })
		e.RunUntil(20) // stops at 3.5; clock still advances to 20
		if e.Now() != 20 {
			// The stranded events must not block the clock contract.
			return nil
		}
		e.RunFor(10) // stranded events (t=4..12) fire now, in order
		return fired
	}
	hp := NewEngine()
	wl := NewEngine()
	wl.EnableTimerWheel(0.5, 8) // horizon 4: most events start past it
	a, b := run(hp), run(wl)
	if a == nil || b == nil {
		t.Fatal("RunUntil did not advance the clock to its target after Stop")
	}
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("fired %d (heap) and %d (wheel) events, want 12", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stranded-event order diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestWheelPendingAndCancel: Pending must count parked wheel events, and a
// wheel cancel must be O(1)-lazy yet immediately reflected in Pending.
func TestWheelPendingAndCancel(t *testing.T) {
	e := NewEngine()
	e.EnableTimerWheel(1, 16)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(Duration(1+i%8), func() {}))
	}
	far := e.Schedule(100, func() {}) // beyond the horizon: heap
	if got := e.Pending(); got != 11 {
		t.Fatalf("Pending = %d, want 11", got)
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Cancel(far)
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending after 3 cancels = %d, want 8", got)
	}
	fired := 0
	for _, ev := range evs {
		if !ev.Cancelled() {
			fired++ // count live events still due
		}
	}
	e.At(50, func() {})
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	if int(e.Processed) != fired+1 {
		t.Fatalf("fired %d events, want %d live + 1", e.Processed, fired)
	}
}

// TestWheelSteadyStateAllocFree: ticker-style periodic load parked on the
// wheel must reach a zero-allocation steady state — events recycle through
// the free list and slot arrays are reused. The rescheduling closures are
// built once up front (Ticker allocates a fresh closure per arm, with or
// without a wheel, so it cannot pin this property).
func TestWheelSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	e.EnableTimerWheel(0.5, 64)
	fns := make([]func(), 32)
	for i := 0; i < 32; i++ {
		iv := Duration(1 + i%7)
		idx := i
		fns[idx] = func() { e.Schedule(iv, fns[idx]) }
		e.Schedule(iv, fns[idx])
	}
	e.RunFor(100) // warm the free list and slot arrays
	avg := testing.AllocsPerRun(50, func() {
		e.RunFor(10)
	})
	if avg != 0 {
		t.Fatalf("wheel periodic steady state allocates %v per RunFor, want 0", avg)
	}
}

// TestCompactFullyCancelledSmallQueue is the regression pin for the
// maybeCompact starvation bug: a queue that is 100% cancelled must be
// reclaimed immediately, however small — the old ≤64-entry threshold left
// it parked forever, so Pending()==0 idle loops spun over dead events and
// the structs never returned to the free list.
func TestCompactFullyCancelledSmallQueue(t *testing.T) {
	e := NewEngine()
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(Duration(i+1), func() {}))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d, want 0", got)
	}
	if len(e.queue) != 0 || e.cancelled != 0 {
		t.Fatalf("fully-cancelled queue not compacted: %d slots, %d stale",
			len(e.queue), e.cancelled)
	}
	if len(e.free) < 10 {
		t.Fatalf("only %d events returned to the free list, want 10", len(e.free))
	}
	// And the free list is actually reused: fresh schedules must not grow it.
	before := len(e.free)
	ev := e.Schedule(1, func() {})
	if len(e.free) != before-1 {
		t.Fatal("Schedule did not reuse a recycled event")
	}
	e.Cancel(ev)
}

// TestDrainCompactAfterStop: when a run loop hands control back with the
// queue holding nothing but stale cancellations (the last live event fired
// after the Cancel arrived), the drain sweep must reclaim them even though
// no further Cancel will push the counter over the threshold.
func TestDrainCompactAfterStop(t *testing.T) {
	e := NewEngine()
	d := e.At(4, func() {}) // will be cancelled, never reclaimed by Cancel
	e.At(1, func() { e.Cancel(d) })
	e.At(2, func() {})
	e.At(3, func() { e.Stop() }) // loop exits before peek can prune d
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
	if len(e.queue) != 0 || e.cancelled != 0 {
		t.Fatalf("drain compact missed the stale queue: %d slots, %d stale",
			len(e.queue), e.cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// TestWheelEnableGuards: geometry validation and idempotence of
// EnableTimerWheel.
func TestWheelEnableGuards(t *testing.T) {
	e := NewEngine()
	for _, bad := range []struct {
		slot  Duration
		slots int
	}{{0, 16}, {-1, 16}, {1, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EnableTimerWheel(%v, %d) did not panic", bad.slot, bad.slots)
				}
			}()
			e.EnableTimerWheel(bad.slot, bad.slots)
		}()
	}
	e.EnableTimerWheel(1, 16)
	e.EnableTimerWheel(2, 32) // second enable: no-op, geometry unchanged
	if len(e.wheel) != 16 || e.slotW != 1 {
		t.Fatalf("second EnableTimerWheel changed geometry to %d × %v",
			len(e.wheel), e.slotW)
	}
}
