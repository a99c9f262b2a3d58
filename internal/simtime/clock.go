// Package simtime provides the virtual clock and discrete-event scheduler
// that every other simulated subsystem is built on.
//
// All simulated latencies in this repository are expressed in virtual
// nanoseconds on a Clock owned by a Scheduler. Determinism is a hard
// requirement: two runs with the same seed and configuration must produce
// identical results, so events that fire at the same instant are ordered by
// a monotonically increasing sequence number assigned at scheduling time.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so call sites can use the familiar constants
// (simtime.Millisecond, ...) without importing two time packages.
type Duration = time.Duration

// Convenience re-exports so simulation code reads naturally.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
)

// Time is an instant of virtual time, nanoseconds since simulation start.
type Time int64

// MaxTime is the largest representable instant; used as the horizon for
// RunUntil when draining a simulation.
const MaxTime = Time(math.MaxInt64)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String renders the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. The callback receives the Scheduler so it
// can reschedule itself or schedule follow-up work.
type Event struct {
	at Time
	fn func(*Scheduler)

	// index is the event's slot in the queue; -1 once popped or cancelled.
	index int
}

// At returns the instant the event is scheduled for.
func (e *Event) At() Time { return e.at }

// slot is one queue entry. It holds the event's (at, seq) key inline, so
// sifts compare keys without dereferencing events.
type slot struct {
	at  Time
	seq uint64
	e   *Event
}

// before reports whether a fires before b: earlier instant first, then
// earlier scheduling.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a binary min-heap of slots ordered by (at, seq). Sifts
// move a hole rather than swapping pairs, and re-index every slot they
// move so Cancel can remove an event by its index.
type eventQueue []slot

// up stores x at index i or above it, moving later-firing parents down.
func (q eventQueue) up(i int, x slot) {
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].e.index = i
		i = p
	}
	q[i] = x
	x.e.index = i
}

// down stores x at index i or below it, moving earlier-firing children up,
// and returns the index it stored x at.
func (q eventQueue) down(i int, x slot) int {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&x) {
			break
		}
		q[i] = q[c]
		q[i].e.index = i
		i = c
	}
	q[i] = x
	x.e.index = i
	return i
}

// Scheduler owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use: the simulation is single-threaded by design so
// that results are deterministic. (A cluster runs one Scheduler per node;
// parallelism happens across schedulers, never within one.)
type Scheduler struct {
	now    Time
	seq    uint64
	queue  eventQueue
	firing bool

	// pool recycles fired and cancelled Events so steady-state scheduling
	// (periodic daemon ticks, kswapd scans) does not allocate.
	pool []*Event
}

// NewScheduler returns a scheduler with the clock at zero and no events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Schedule registers fn to run at instant at. Scheduling in the past is a
// programming error and panics: allowing it silently would corrupt the
// causal order of the simulation.
func (s *Scheduler) Schedule(at Time, fn func(*Scheduler)) *Event {
	if at < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	s.seq++
	var e *Event
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		e.at, e.fn = at, fn
	} else {
		e = &Event{at: at, fn: fn}
	}
	s.queue = append(s.queue, slot{})
	s.queue.up(len(s.queue)-1, slot{at: at, seq: s.seq, e: e})
	return e
}

// remove takes the event at index i off the queue and returns it. The last
// slot fills the hole, sifting down, or up when i was mid-queue and the
// moved slot fires before i's parent.
func (s *Scheduler) remove(i int) *Event {
	q := s.queue
	e := q[i].e
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	q = q[:n]
	s.queue = q
	if i < n && q.down(i, last) == i {
		q.up(i, last)
	}
	return e
}

// release returns a no-longer-pending event to the pool for reuse by a
// future Schedule call.
func (s *Scheduler) release(e *Event) {
	e.fn = nil
	e.index = -1
	s.pool = append(s.pool, e)
}

// ScheduleAfter registers fn to run d after the current instant. Negative
// delays are clamped to zero.
func (s *Scheduler) ScheduleAfter(d Duration, fn func(*Scheduler)) *Event {
	if d < 0 {
		d = 0
	}
	return s.Schedule(s.now.Add(d), fn)
}

// Cancel removes a pending event. Cancelling a nil, already-fired or
// already-cancelled event is a no-op, which keeps caller bookkeeping simple.
// Fired events are recycled by later Schedule calls, so a caller must not
// retain an event past its firing and Cancel it afterwards — drop the
// pointer (or nil it out) once the callback has run, as PeriodicTask does.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.release(s.remove(e.index))
}

// Pending returns the number of events waiting to fire.
func (s *Scheduler) Pending() int { return len(s.queue) }

// PeekNext returns the time of the earliest pending event and true, or zero
// and false when the queue is empty.
func (s *Scheduler) PeekNext() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// fireNext pops the earliest pending event, advances the clock to its
// instant, recycles the Event, and runs its callback. The Event is released
// before the callback so a self-rescheduling task (the common periodic-tick
// pattern) reuses the same hot object. Callers must have checked the queue
// is non-empty and set s.firing.
func (s *Scheduler) fireNext() {
	e := s.remove(0)
	s.now = e.at
	fn := e.fn
	s.release(e)
	fn(s)
}

// enterRun guards the two run loops against re-entrancy: an event callback
// calling RunUntil/Advance/Drain would nest firing loops and corrupt the
// causal order (the inner loop would advance the clock under the outer
// one). Callbacks must schedule follow-up work instead.
func (s *Scheduler) enterRun(op string) {
	if s.firing {
		panic(fmt.Sprintf("simtime: re-entrant %s from inside an event callback", op))
	}
	s.firing = true
}

// RunUntil fires every event scheduled at or before horizon, in causal
// order, then advances the clock to horizon. It returns the number of events
// fired. Events may schedule further events; those are honoured if they fall
// within the horizon. Calling RunUntil from inside an event callback panics.
func (s *Scheduler) RunUntil(horizon Time) int {
	// Nothing due: most calls between requests only move the clock. A past
	// horizon or a call from a callback falls through to the panics below.
	if horizon >= s.now && !s.firing && (len(s.queue) == 0 || s.queue[0].at > horizon) {
		s.now = horizon
		return 0
	}
	if horizon < s.now {
		panic(fmt.Sprintf("simtime: RunUntil horizon %v before now %v", horizon, s.now))
	}
	s.enterRun("RunUntil")
	defer func() { s.firing = false }()
	fired := 0
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		s.fireNext()
		fired++
	}
	s.now = horizon
	return fired
}

// Advance moves the clock forward by d, firing any events that fall inside
// the window. It is the primary way a synchronous actor (such as a simulated
// process thread computing a request latency) yields to background work.
func (s *Scheduler) Advance(d Duration) int {
	return s.RunUntil(s.now.Add(d))
}

// Drain runs events until the queue is empty or limit events have fired.
// It returns the number fired. A limit of 0 means no limit; the cap exists
// so a misbehaving self-rescheduling task cannot hang a test forever.
// Like RunUntil, calling Drain from inside an event callback panics.
func (s *Scheduler) Drain(limit int) int {
	s.enterRun("Drain")
	defer func() { s.firing = false }()
	fired := 0
	for len(s.queue) > 0 {
		if limit > 0 && fired >= limit {
			break
		}
		s.fireNext()
		fired++
	}
	return fired
}
