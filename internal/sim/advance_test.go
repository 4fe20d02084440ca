package sim

import (
	"math"
	"testing"
)

// kernelCounters is everything Advance promises to move exactly as a
// Schedule plus register dispatch would.
type kernelCounters struct {
	now                         Time
	scheduled, executed, bypass uint64
	peak, pending               int
}

func countersOf(s *Simulation) kernelCounters {
	return kernelCounters{s.Now(), s.Scheduled(), s.Executed(), s.Bypassed(), s.PeakPending(), s.Pending()}
}

// TestAdvanceMatchesScheduleStep scripts one delay chain over a standing
// far-future population and plays it twice: once as Schedule+Step (every
// event parks in the register and dispatches straight back) and once as
// Advance. Clock, counters, traced times and the subsequent drain must
// agree step for step. The wheel leg keeps the chain inside the ready tick,
// the only place a bucketed calendar lets the register take an event.
func TestAdvanceMatchesScheduleStep(t *testing.T) {
	legs := []struct {
		kind   CalendarKind
		delays []Time
	}{
		{HeapCalendar, []Time{0.5, 0, 1.25, 3, 0.001, 10, 0.5, 0, 7}},
		{WheelCalendar, []Time{0.25, 0, 0.125, 0.0625, 0.001, 0.3}},
	}
	for _, leg := range legs {
		t.Run(leg.kind.String(), func(t *testing.T) {
			var refTrace, advTrace []Time
			build := func(trace *[]Time) (*Simulation, *[]fired) {
				s := New(WithCalendar(leg.kind))
				s.Trace = func(now Time) { *trace = append(*trace, now) }
				var record []fired
				// The first event takes the empty register and is fired at
				// once, so the standing population ends up in the calendar.
				s.Schedule(0, func() {})
				for i := 0; i < 8; i++ {
					id := i
					s.Schedule(1e6+Time(i), func() { record = append(record, fired{id: id, now: s.Now()}) })
				}
				s.Step()
				return s, &record
			}
			ref, refRec := build(&refTrace)
			adv, advRec := build(&advTrace)
			for i, d := range leg.delays {
				ref.Schedule(d, func() {})
				if !ref.Step() {
					t.Fatalf("step %d: reference calendar empty", i)
				}
				if !adv.Advance(d) {
					t.Fatalf("step %d: Advance(%v) refused a next-event delay", i, d)
				}
				if r, a := countersOf(ref), countersOf(adv); r != a {
					t.Fatalf("step %d: Schedule+Step %+v, Advance %+v", i, r, a)
				}
			}
			ref.Run()
			adv.Run()
			if r, a := countersOf(ref), countersOf(adv); r != a {
				t.Fatalf("after drain: Schedule+Step %+v, Advance %+v", r, a)
			}
			if len(*refRec) != 8 || len(*advRec) != 8 {
				t.Fatalf("drained %d/%d standing events, want 8", len(*refRec), len(*advRec))
			}
			for i := range *refRec {
				if (*refRec)[i] != (*advRec)[i] {
					t.Fatalf("standing event %d: %+v vs %+v", i, (*refRec)[i], (*advRec)[i])
				}
			}
			if len(refTrace) != len(advTrace) {
				t.Fatalf("traced %d vs %d events", len(refTrace), len(advTrace))
			}
			for i := range refTrace {
				if refTrace[i] != advTrace[i] {
					t.Fatalf("trace %d: %v vs %v", i, refTrace[i], advTrace[i])
				}
			}
		})
	}
}

// refuses asserts Advance(d) declines and leaves every counter untouched.
func refuses(t *testing.T, s *Simulation, d Time, why string) {
	t.Helper()
	before := countersOf(s)
	if s.Advance(d) {
		t.Fatalf("Advance(%v) succeeded %s", d, why)
	}
	if after := countersOf(s); after != before {
		t.Fatalf("refused Advance(%v) %s changed counters: %+v -> %+v", d, why, before, after)
	}
}

func TestAdvanceRefusesOccupiedRegister(t *testing.T) {
	s := New()
	s.Schedule(1, func() {}) // empty calendar: parks in the register
	refuses(t, s, 0.5, "with the register occupied")
}

// TestAdvanceRefusesCalendarTie: same-time events fire FIFO through the
// calendar, so an advance onto the calendar head's time must be refused,
// while a strictly earlier one is allowed.
func TestAdvanceRefusesCalendarTie(t *testing.T) {
	s := New()
	s.Schedule(10, func() {}) // register
	s.Schedule(3, func() {})  // demotes the t=10 event to the heap
	s.Step()                  // fires t=3; register empty, heap head at 10
	refuses(t, s, 7, "onto a calendar event's time")
	refuses(t, s, 8, "past a calendar event")
	if !s.Advance(6.5) {
		t.Fatal("Advance refused a delay strictly before the calendar head")
	}
	if s.Now() != 9.5 {
		t.Fatalf("Now = %v after Advance, want 9.5", s.Now())
	}
}

// TestAdvanceRefusesBucketedEvent: on the timing wheel an event in a
// bucket lies beyond the ready tick; an advance past the tick could
// overtake it, so it is refused.
func TestAdvanceRefusesBucketedEvent(t *testing.T) {
	s := New(WithCalendar(WheelCalendar))
	s.Schedule(0.5, func() {}) // register
	s.Schedule(100, func() {}) // a wheel bucket
	s.Step()
	refuses(t, s, 150, "past a bucketed event")
	refuses(t, s, 99.5, "beyond the ready tick with a bucket occupied")
	if !s.Advance(0.25) {
		t.Fatal("Advance refused a delay inside the ready tick")
	}
}

func TestAdvanceRefusesWithoutRegister(t *testing.T) {
	refuses(t, New(WithHeadSlot(false)), 1, "with the register disabled")
}

// TestAdvanceRefusesPastHorizon: under RunUntil the clock must not pass
// the horizon, so an in-action Advance beyond it is refused.
func TestAdvanceRefusesPastHorizon(t *testing.T) {
	s := New()
	var inside, beyond bool
	s.Schedule(1, func() {
		inside = s.Advance(2)
		beyond = s.Advance(10)
	})
	s.RunUntil(5)
	if !inside || beyond {
		t.Fatalf("under RunUntil(5): Advance to 3 = %v (want true), to 13 = %v (want false)", inside, beyond)
	}
	if !s.Advance(10) {
		t.Fatal("Advance refused after RunUntil returned")
	}
}

func TestAdvancePanicsOnInvalidDelay(t *testing.T) {
	for _, d := range []Time{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Advance(%v) did not panic", d)
				}
			}()
			New().Advance(d)
		}()
	}
}

// TestAdvancePollsStopCheck: one dispatched event that keeps advancing
// accounts for an unbounded number of executed events, so Advance itself
// must poll the stop check, halting within StopCheckInterval events of the
// check tripping.
func TestAdvancePollsStopCheck(t *testing.T) {
	s := New()
	advanced := 0
	s.Schedule(1, func() {
		for advanced < 10*StopCheckInterval && s.Advance(1) {
			advanced++
		}
	})
	polls := 0
	s.SetStopCheck(func() bool {
		polls++
		return polls >= 2
	})
	s.Run()
	if !s.Halted() {
		t.Fatal("advancing chain ran to its limit without halting")
	}
	if want := uint64(2 * StopCheckInterval); s.Executed() != want {
		t.Fatalf("halted after %d events, want %d", s.Executed(), want)
	}
	if s.Advance(1) {
		t.Fatal("Advance succeeded on a halted simulation")
	}
}
