package simtime

import "testing"

func TestPeriodicTaskFiresAtPeriod(t *testing.T) {
	s := NewScheduler()
	var fires []Time
	p := NewPeriodicTask(s, 10, func(now Time) Duration {
		fires = append(fires, now)
		return 0
	})
	s.RunUntil(35)
	p.Stop()
	want := []Time{10, 20, 30}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestPeriodicTaskLongTickDelaysNext(t *testing.T) {
	s := NewScheduler()
	var fires []Time
	p := NewPeriodicTask(s, 10, func(now Time) Duration {
		fires = append(fires, now)
		return 25 // tick takes 2.5 periods
	})
	s.RunUntil(80)
	p.Stop()
	// First tick at 10 runs until 35; next fires at 35, runs until 60; next
	// at 60 runs until 85 (beyond horizon).
	want := []Time{10, 35, 60}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestPeriodicTaskStopIsIdempotent(t *testing.T) {
	s := NewScheduler()
	p := NewPeriodicTask(s, 10, func(Time) Duration { return 0 })
	p.Stop()
	p.Stop()
	if fired := s.RunUntil(100); fired != 0 {
		t.Fatalf("stopped task fired %d times", fired)
	}
	if !p.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestPeriodicTaskAccounting(t *testing.T) {
	s := NewScheduler()
	p := NewPeriodicTask(s, 100, func(Time) Duration { return 7 })
	s.RunUntil(1000)
	if p.Ticks != 10 {
		t.Fatalf("ticks = %d, want 10", p.Ticks)
	}
	if p.Busy != 70 {
		t.Fatalf("busy = %v, want 70", p.Busy)
	}
	util := p.Utilization(s.Now())
	if util < 0.069 || util > 0.071 {
		t.Fatalf("utilization = %v, want ~0.07", util)
	}
}

// TestPeriodicTaskTickAllocs: a fired tick reschedules the task's bound
// callback on a recycled event, so a running task allocates nothing.
func TestPeriodicTaskTickAllocs(t *testing.T) {
	s := NewScheduler()
	p := NewPeriodicTask(s, 10, func(Time) Duration { return 1 })
	defer p.Stop()
	if allocs := testing.AllocsPerRun(100, func() { s.Advance(10) }); allocs != 0 {
		t.Fatalf("%v allocations per tick, want 0", allocs)
	}
	if p.Ticks != 101 {
		t.Fatalf("ticks = %d, want 101 (one per Advance of a period)", p.Ticks)
	}
}
