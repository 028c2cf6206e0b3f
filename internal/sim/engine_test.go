package sim

import (
	"testing"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("events at equal time fired out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(1, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v, want [1 2]", hits)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	// Cancelling again is a no-op.
	e.Cancel(ev)
	// Cancelling nil is a no-op.
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var fired []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.Schedule(Duration(i+1), func() { fired = append(fired, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want 4 events", fired)
	}
	for _, i := range fired {
		if i == 2 {
			t.Fatal("cancelled event 2 fired")
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %v, want 2.5 after RunUntil", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2, func() { fired = true })
	e.RunUntil(2)
	if !fired {
		t.Fatal("event at exactly t should fire during RunUntil(t)")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunFor(10)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	e.RunFor(5)
	if e.Now() != 15 {
		t.Fatalf("Now() = %v, want 15", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop should halt Run)", count)
	}
}

// TestRunUntilAdvancesClockAfterStop: Stop() used to skip RunUntil's final
// clock advance, so a later RunFor(d) started from a stale Now() and ran
// short. The clock must reach the target; events bypassed by the Stop stay
// queued and fire when processing resumes — without moving the clock
// backwards.
func TestRunUntilAdvancesClockAfterStop(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func() { e.Stop() })
	var lateAt Time = -1
	e.Schedule(5, func() { lateAt = e.Now() })
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after stopped RunUntil(10), want 10", e.Now())
	}
	if lateAt != -1 {
		t.Fatal("event beyond the stop point fired during the stopped run")
	}
	e.RunFor(5)
	if e.Now() != 15 {
		t.Fatalf("Now() = %v after RunFor(5), want 15 (ran short)", e.Now())
	}
	// The bypassed event fired on resume, at the then-current clock.
	if lateAt != 10 {
		t.Fatalf("bypassed event fired at %v, want 10 (clock never rewinds)", lateAt)
	}
}

// TestEventRecycling: fired events are reused by later Schedules instead
// of allocating, and the reuse preserves scheduling semantics.
func TestEventRecycling(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(1, func() {})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire churn allocates %v objects/op, want 0", allocs)
	}
}

// TestLazyCancelAccounting: cancelled events no longer fire, Pending
// excludes them, and heavy cancel churn compacts the queue.
func TestLazyCancelAccounting(t *testing.T) {
	e := NewEngine()
	keep := 0
	e.Schedule(1000, func() { keep++ })
	for i := 0; i < 500; i++ {
		ev := e.Schedule(Duration(i+1), func() { t.Error("cancelled event fired") })
		e.Cancel(ev)
		if ev.index >= 0 && !ev.cancel {
			t.Fatal("cancel not recorded")
		}
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d with one live event, want 1", got)
	}
	// Compaction must have bounded the heap well below the 501 slots that
	// eager retention would use.
	if len(e.queue) > 130 {
		t.Fatalf("queue holds %d slots after cancel churn, want compacted", len(e.queue))
	}
	e.Run()
	if keep != 1 {
		t.Fatalf("live event fired %d times, want 1", keep)
	}
}

// TestCancelChurnDoesNotAllocate: steady-state schedule+cancel churn (the
// watchdog-reset pattern) reuses cancelled events once compaction has
// recycled them.
func TestCancelChurnDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	// Prime: build up a recycled pool via compaction.
	for i := 0; i < 1000; i++ {
		e.Cancel(e.Schedule(1, func() {}))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.Schedule(1, func() {}))
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel churn allocates %v objects/op, want 0", allocs)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(1, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	e.Schedule(1, nil)
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := e.NewTicker(1, func(now Time) {
		ticks = append(ticks, now)
	})
	e.RunUntil(5.5)
	tk.Stop()
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, tm := range ticks {
		if tm != Time(i+1) {
			t.Fatalf("tick %d at %v, want %d", i, tm, i+1)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(1, func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero ticker interval")
		}
	}()
	e.NewTicker(0, func(Time) {})
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(1, func() {})
	}
	e.Run()
	if e.Processed != 7 {
		t.Fatalf("Processed = %d, want 7", e.Processed)
	}
}

func TestEventAccessors(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(2, func() {})
	if ev.Time() != 2 {
		t.Fatalf("Time() = %v, want 2", ev.Time())
	}
	if ev.Fired() {
		t.Fatal("event reported fired before running")
	}
	e.Run()
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestTimerFiresOnce(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(3, func(now Time) { fired = append(fired, now) })
	if !tm.Active() {
		t.Fatal("armed timer not active")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("fired = %v, want [3]", fired)
	}
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.NewTimer(3, func(Time) { fired = true })
	tm.Stop()
	if tm.Active() {
		t.Fatal("stopped timer still active")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	tm := e.NewTimer(3, func(now Time) { fired = append(fired, now) })
	e.RunUntil(1)
	tm.Reset(10) // supersedes the pending t=3 firing
	e.Run()
	if len(fired) != 1 || fired[0] != 11 {
		t.Fatalf("fired = %v, want [11]", fired)
	}
}

func TestTimerRearmAfterFiring(t *testing.T) {
	e := NewEngine()
	count := 0
	tm := e.NewTimer(1, func(Time) { count++ })
	e.Run()
	tm.Reset(2)
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}
