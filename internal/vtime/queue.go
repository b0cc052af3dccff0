// Package vtime provides the virtual-time primitives used by the
// discrete-event simulator: a tick-based clock type and a deterministic
// event queue.
//
// Events are ordered by (time, sequence). The sequence number is assigned
// at scheduling time, so two events scheduled for the same tick always fire
// in scheduling order, which makes entire simulation runs reproducible for
// a given seed.
package vtime

// Time is a point in virtual time, measured in ticks. One tick is
// calibrated to roughly one CPU cycle by the simulator's cost tables.
type Time = int64

// Event is a scheduled callback. Events are single-shot: once fired or
// canceled they are inert. The zero Event is not usable; obtain events
// from Queue.Schedule.
type Event struct {
	At       Time
	seq      uint64
	index    int // heap index, -1 if popped/canceled
	canceled bool
	pooled   bool
	// weak marks a passive instrumentation event (ScheduleWeak): it
	// fires like any other event but does not count toward StrongLen,
	// so the simulator can tell "work remains" from "only telemetry
	// remains". Weak events must not be canceled — Cancel's live-count
	// bookkeeping ignores them.
	weak bool
	q    *Queue // owner, for Cancel's live-strong accounting
	Fn   func()
}

// Cancel marks the event so that it will not fire. Canceling an already
// fired or canceled event is a no-op. The event is removed lazily when it
// reaches the head of the queue.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index != -1 && !e.weak && e.q != nil {
		e.q.strong--
	}
}

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// entry is a heap slot: the ordering key (time, sequence) stored inline
// next to the event pointer. Sift comparisons — the hot path of every
// push and pop — read keys straight from the contiguous heap slice
// instead of chasing each Event pointer to a separate heap object.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports whether a fires before b: earlier time, or scheduling
// order on ties.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Queue is a deterministic min-heap of events. The zero value is an empty
// queue ready for use. Queue is not safe for concurrent use; the simulator
// drives it from a single goroutine.
//
// The heap is 4-ary: the simulator's event mix after spin coalescing and
// instruction batching is dominated by short-lived near-term events
// (instruction completions, spin-exit checks) threaded between a few
// long-lived timers (slice expiries, futex timeouts), so the queue stays
// shallow and wide. A 4-ary layout halves the sift depth of a binary
// heap, keeps the four children of a node on one cache line, and pays for
// the extra comparisons only on the rare deep sift. Sift paths are
// hole-based (one write per level instead of a swap's three).
type Queue struct {
	heap []entry
	seq  uint64
	// strong counts live (not canceled, not fired) non-weak events in
	// the heap. When it reaches zero only telemetry remains; the
	// simulator treats that as a drained queue.
	strong int
	// free is the event free-list: fired or collected-after-cancel events
	// recycled by Recycle and reused by Schedule, cutting the per-step
	// allocation on the simulator's hot path to zero once warm.
	free []*Event
}

// arity is the heap fan-out. Child i*arity+1 .. i*arity+arity, parent
// (i-1)/arity.
const arity = 4

// maxFree bounds the free-list so a transient event burst does not pin
// memory for the rest of the run.
const maxFree = 1024

// Len returns the number of events in the queue, including canceled events
// that have not yet been removed.
func (q *Queue) Len() int { return len(q.heap) }

// StrongLen returns the number of live non-weak events: pending work
// that should keep a simulation running. Canceled events and weak
// (instrumentation) events do not count.
func (q *Queue) StrongLen() int { return q.strong }

// Schedule adds fn to run at time at and returns a handle that can be used
// to cancel it. Scheduling in the past is permitted (the simulator guards
// against it separately); such events fire before any later ones.
func (q *Queue) Schedule(at Time, fn func()) *Event {
	q.strong++
	return q.schedule(at, fn, false)
}

// ScheduleWeak is Schedule for passive instrumentation: the event fires
// normally (and bounds PeekTime-based fast-forwarding like any other),
// but does not count toward StrongLen, so it never makes the queue look
// like it still has work. Weak events must not be canceled.
func (q *Queue) ScheduleWeak(at Time, fn func()) *Event {
	return q.schedule(at, fn, true)
}

func (q *Queue) schedule(at Time, fn func(), weak bool) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*e = Event{At: at, seq: q.seq, weak: weak, q: q, Fn: fn}
	} else {
		//flexlint:allow hotalloc allocates only while the free list is empty; steady state recycles
		e = &Event{At: at, seq: q.seq, weak: weak, q: q, Fn: fn}
	}
	q.seq++
	q.push(e)
	return e
}

// Recycle returns a fired event to the free-list for reuse by Schedule.
// The caller must guarantee no reference to e survives the call: a
// recycled event may be handed out again as a logically different event,
// so a stale Cancel through an old pointer would cancel the wrong one.
// The simulator upholds this by nulling its event handles when a
// callback fires or is canceled. Recycling an event still in the heap,
// already pooled, or nil is a no-op.
func (q *Queue) Recycle(e *Event) {
	if e == nil || e.index != -1 || e.pooled || len(q.free) >= maxFree {
		return
	}
	e.Fn = nil
	e.pooled = true
	q.free = append(q.free, e) //flexlint:allow hotalloc free list capped at maxFree; capacity is reused
}

// PeekTime returns the firing time of the earliest live event, discarding
// canceled events from the head. ok is false if the queue is empty.
func (q *Queue) PeekTime() (t Time, ok bool) {
	q.dropCanceled()
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes and returns the earliest live event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	q.dropCanceled()
	if len(q.heap) == 0 {
		return nil
	}
	e := q.pop()
	if !e.weak {
		q.strong--
	}
	return e
}

func (q *Queue) dropCanceled() {
	for len(q.heap) > 0 && q.heap[0].ev.canceled {
		q.Recycle(q.pop())
	}
}

// push appends e and sifts it up with a hole: the displaced parents move
// down one level each and e is written once at its final slot.
func (q *Queue) push(e *Event) {
	en := entry{at: e.At, seq: e.seq, ev: e}
	i := len(q.heap)
	q.heap = append(q.heap, en) //flexlint:allow hotalloc heap spine; amortized, capacity is reused across phases
	for i > 0 {
		p := (i - 1) / arity
		parent := q.heap[p]
		if !en.before(parent) {
			break
		}
		q.heap[i] = parent
		parent.ev.index = i
		i = p
	}
	q.heap[i] = en
	e.index = i
}

// pop removes the root and sifts the last event down with a hole,
// selecting the smallest of up to arity children per level.
func (q *Queue) pop() *Event {
	top := q.heap[0].ev
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = entry{}
	q.heap = q.heap[:n]
	if n > 0 {
		i := 0
		for {
			first := arity*i + 1
			if first >= n {
				break
			}
			smallest := first
			end := first + arity
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if q.heap[c].before(q.heap[smallest]) {
					smallest = c
				}
			}
			if !q.heap[smallest].before(last) {
				break
			}
			q.heap[i] = q.heap[smallest]
			q.heap[i].ev.index = i
			i = smallest
		}
		q.heap[i] = last
		last.ev.index = i
	}
	top.index = -1
	return top
}
