package simtime

// PeriodicTask repeatedly invokes a callback at a fixed virtual-time period.
// It models daemon threads: the Hermes management thread (woken every f
// milliseconds), the memory-monitor daemon, and kswapd's background scans.
//
// The callback returns the amount of virtual CPU time the tick consumed;
// the next tick is scheduled one full period after the *start* of the
// current tick, matching a thread that sleeps on a periodic timer. If a tick
// runs longer than the period, the next tick fires immediately after it
// completes rather than stacking up.
type PeriodicTask struct {
	sched  *Scheduler
	period Duration
	tick   func(now Time) Duration
	// fire is p.run, bound once: a method value evaluated per Schedule
	// would allocate a closure on every tick.
	fire    func(*Scheduler)
	event   *Event
	stopped bool

	// Ticks counts completed invocations; exposed for overhead accounting.
	Ticks int64
	// Busy accumulates virtual CPU time consumed by the callback, used to
	// report the management thread's CPU overhead (paper §5.5: ~0.4%).
	Busy Duration
}

// NewPeriodicTask creates and starts a periodic task. The first tick fires
// one full period from now, matching a thread that sleeps before its first
// scan. Stop must be called to release it.
func NewPeriodicTask(s *Scheduler, period Duration, tick func(now Time) Duration) *PeriodicTask {
	if period <= 0 {
		panic("simtime: periodic task period must be positive")
	}
	if tick == nil {
		panic("simtime: nil periodic task callback")
	}
	p := &PeriodicTask{sched: s, period: period, tick: tick}
	p.fire = p.run
	p.event = s.ScheduleAfter(period, p.fire)
	return p
}

func (p *PeriodicTask) run(s *Scheduler) {
	if p.stopped {
		return
	}
	// The event that fired us is being recycled by the scheduler; drop the
	// stale pointer so a Stop from inside the tick cannot cancel whatever
	// event the scheduler hands out next.
	p.event = nil
	start := s.Now()
	busy := p.tick(start)
	if busy < 0 {
		busy = 0
	}
	p.Ticks++
	p.Busy += busy
	if p.stopped { // the tick stopped its own task
		return
	}
	next := start.Add(p.period)
	if end := start.Add(busy); next < end {
		next = end
	}
	p.event = s.Schedule(next, p.fire)
}

// Stop cancels the task. Safe to call multiple times.
func (p *PeriodicTask) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.sched.Cancel(p.event)
	p.event = nil
}

// Stopped reports whether Stop has been called.
func (p *PeriodicTask) Stopped() bool { return p.stopped }

// Utilization returns the fraction of virtual time the task's callback was
// busy over the window [0, now]. Used by the overhead experiment (E14).
func (p *PeriodicTask) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(p.Busy) / float64(now)
}
