package simtime

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
)

func TestSchedulerRunsEventsInOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.Schedule(30, func(*Scheduler) { got = append(got, 3) })
	s.Schedule(10, func(*Scheduler) { got = append(got, 1) })
	s.Schedule(20, func(*Scheduler) { got = append(got, 2) })
	if fired := s.RunUntil(100); fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 100 {
		t.Fatalf("now = %v, want 100", s.Now())
	}
}

func TestSchedulerTieBreakIsFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func(*Scheduler) { got = append(got, i) })
	}
	s.RunUntil(5)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerEventsCanScheduleWithinHorizon(t *testing.T) {
	s := NewScheduler()
	var hits int
	s.Schedule(10, func(s *Scheduler) {
		hits++
		s.Schedule(20, func(*Scheduler) { hits++ })
		s.Schedule(200, func(*Scheduler) { hits++ }) // beyond horizon
	})
	s.RunUntil(100)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2 (nested event within horizon must fire)", hits)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(50)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.Schedule(10, func(*Scheduler) {})
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.Schedule(10, func(*Scheduler) { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double-cancel is a no-op
	s.RunUntil(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestAdvanceMovesClockAndFires(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.ScheduleAfter(7, func(s *Scheduler) { at = s.Now() })
	s.Advance(10)
	if at != 7 {
		t.Fatalf("event fired at %v, want 7", at)
	}
	if s.Now() != 10 {
		t.Fatalf("now = %v, want 10", s.Now())
	}
}

func TestDrainLimit(t *testing.T) {
	s := NewScheduler()
	count := 0
	var reschedule func(*Scheduler)
	reschedule = func(s *Scheduler) {
		count++
		s.ScheduleAfter(1, reschedule)
	}
	s.ScheduleAfter(1, reschedule)
	if fired := s.Drain(25); fired != 25 {
		t.Fatalf("drain fired %d, want 25", fired)
	}
	if count != 25 {
		t.Fatalf("count = %d, want 25", count)
	}
}

func TestPeekNext(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.PeekNext(); ok {
		t.Fatal("PeekNext on empty queue must report false")
	}
	s.Schedule(42, func(*Scheduler) {})
	at, ok := s.PeekNext()
	if !ok || at != 42 {
		t.Fatalf("PeekNext = (%v,%v), want (42,true)", at, ok)
	}
}

// Property: under any mix of Schedule, Cancel and RunUntil steps, with
// many events at equal instants, each RunUntil fires exactly the due events
// in (at, seq) order, ties in scheduling order, at their own instants, and
// returns their count; Pending matches the oracle after every step, and a
// last run past every instant fires whatever is left.
func TestSchedulerOrderProperty(t *testing.T) {
	type entry struct {
		at Time
		id int
		e  *Event
	}
	f := func(ops []uint16) bool {
		s := NewScheduler()
		var pending []entry // the oracle: pending events in scheduling order
		var fired []int
		ok := true
		run := func(horizon Time) bool {
			due := slices.DeleteFunc(slices.Clone(pending), func(p entry) bool { return p.at > horizon })
			slices.SortStableFunc(due, func(a, b entry) int { return cmp.Compare(a.at, b.at) })
			want := make([]int, len(due))
			for i, p := range due {
				want[i] = p.id
			}
			pending = slices.DeleteFunc(pending, func(p entry) bool { return p.at <= horizon })
			fired = fired[:0]
			n := s.RunUntil(horizon)
			return n == len(want) && slices.Equal(fired, want) && s.Now() == horizon
		}
		for id, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0, 1, 2, 3, 4: // schedule up to 15 ns ahead, so instants tie often
				at := s.Now().Add(Duration(arg % 16))
				e := s.Schedule(at, func(s *Scheduler) {
					if s.Now() != at {
						ok = false
					}
					fired = append(fired, id)
				})
				pending = append(pending, entry{at, id, e})
			case 5, 6: // cancel any pending event, often from mid-queue
				if len(pending) > 0 {
					k := arg % len(pending)
					s.Cancel(pending[k].e)
					pending = slices.Delete(pending, k, k+1)
				}
			default: // run up to 7 ns ahead
				if !run(s.Now().Add(Duration(arg % 8))) {
					return false
				}
			}
			if s.Pending() != len(pending) {
				return false
			}
		}
		return run(s.Now().Add(16)) && s.Pending() == 0 && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUntilPastHorizonPanics: the clock never moves backwards, whether or
// not an event is pending, and a rejected call leaves the clock and queue
// as they were.
func TestRunUntilPastHorizonPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		call func(*Scheduler)
	}{
		{"RunUntil(now-1)", func(s *Scheduler) { s.RunUntil(s.Now() - 1) }},
		{"Advance(-1)", func(s *Scheduler) { s.Advance(-1) }},
	} {
		for _, withEvent := range []bool{false, true} {
			s := NewScheduler()
			s.RunUntil(100)
			if withEvent {
				s.Schedule(200, func(*Scheduler) {})
			}
			pending := s.Pending()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with %d pending must panic", c.name, pending)
					}
				}()
				c.call(s)
			}()
			if s.Now() != 100 || s.Pending() != pending {
				t.Errorf("%s with %d pending: now %v, pending %d; want 100ns, %d", c.name, pending, s.Now(), s.Pending(), pending)
			}
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(100)
	if a.Add(50) != 150 {
		t.Fatal("Add broken")
	}
	if a.Sub(40) != 60 {
		t.Fatal("Sub broken")
	}
	if !a.Before(101) || a.Before(99) {
		t.Fatal("Before broken")
	}
	if !a.After(99) || a.After(101) {
		t.Fatal("After broken")
	}
}

func TestEventPoolReusesFiredEvents(t *testing.T) {
	s := NewScheduler()
	first := s.Schedule(10, func(*Scheduler) {})
	s.RunUntil(10)
	second := s.Schedule(20, func(*Scheduler) {})
	if first != second {
		t.Error("fired event was not recycled by the next Schedule")
	}
	s.RunUntil(20)
}

func TestEventPoolReusesCancelledEvents(t *testing.T) {
	s := NewScheduler()
	e := s.Schedule(10, func(*Scheduler) { t.Error("cancelled event fired") })
	s.Cancel(e)
	reused := s.Schedule(15, func(*Scheduler) {})
	if e != reused {
		t.Error("cancelled event was not recycled by the next Schedule")
	}
	if got := s.RunUntil(20); got != 1 {
		t.Fatalf("fired %d events, want 1", got)
	}
}

func TestScheduleAllocatesOncePerPoolSlot(t *testing.T) {
	s := NewScheduler()
	// Steady-state self-rescheduling must not allocate: the fired event is
	// recycled for the next tick.
	ticks := 0
	var tick func(*Scheduler)
	tick = func(sc *Scheduler) {
		ticks++
		if ticks < 100 {
			sc.ScheduleAfter(10, tick)
		}
	}
	s.ScheduleAfter(10, tick)
	allocs := testing.AllocsPerRun(1, func() {
		for ticks < 100 {
			s.Advance(10)
		}
	})
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
	if allocs > 0 {
		t.Errorf("steady-state scheduling allocated %v objects per run, want 0", allocs)
	}
}

func TestRunUntilReentrancyPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func(sc *Scheduler) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant RunUntil from a callback must panic")
			}
		}()
		sc.RunUntil(20)
	})
	s.RunUntil(15)
	// The guard must reset: a later top-level run loop still works.
	s.Schedule(30, func(*Scheduler) {})
	if got := s.RunUntil(40); got != 1 {
		t.Fatalf("post-panic RunUntil fired %d events, want 1", got)
	}
}

func TestDrainReentrancyPanics(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, func(sc *Scheduler) {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Drain from a callback must panic")
			}
		}()
		sc.Drain(0)
	})
	if got := s.Drain(0); got != 1 {
		t.Fatalf("Drain fired %d events, want 1", got)
	}
}

func TestDrainMatchesRunUntilOrdering(t *testing.T) {
	run := func(drain bool) []int {
		s := NewScheduler()
		var order []int
		for i, at := range []Time{30, 10, 20, 10} {
			i := i
			s.Schedule(at, func(*Scheduler) { order = append(order, i) })
		}
		if drain {
			s.Drain(0)
		} else {
			s.RunUntil(30)
		}
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RunUntil order %v != Drain order %v", a, b)
		}
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	// single: one event on an empty queue, scheduled and fired per op.
	b.Run("single", func(b *testing.B) {
		s := NewScheduler()
		fn := func(*Scheduler) {}
		s.ScheduleAfter(10, fn) // fill the pool and the queue's array once
		s.Advance(10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ScheduleAfter(10, fn)
			s.Advance(10)
		}
	})
	// node: the periodic tasks of one coloc-hermes-8n node with empty tick
	// bodies (four 2 ms Hermes management threads, kswapd's 0.5 ms scan,
	// two 100 ms daemons and a 500 ms refresh), stepped like a request's
	// serve: RunUntil to the next arrival, then Advance by a service time.
	// Most steps have nothing due.
	b.Run("node", func(b *testing.B) {
		s := NewScheduler()
		idle := func(Time) Duration { return 0 }
		for _, p := range []Duration{
			2 * Millisecond, 2 * Millisecond, 2 * Millisecond, 2 * Millisecond,
			500 * Microsecond, 100 * Millisecond, 100 * Millisecond, 500 * Millisecond,
		} {
			NewPeriodicTask(s, p, idle)
		}
		b.ReportAllocs()
		b.ResetTimer()
		fired := 0
		for i := 0; i < b.N; i++ {
			fired += s.RunUntil(s.Now().Add(150 * Microsecond))
			fired += s.Advance(10 * Microsecond)
		}
		if fired > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fired), "ns/event")
		}
	})
}
