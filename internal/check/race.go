package check

// The race auditor: a FastTrack-style vector-clock detector adapted to
// the simulator's sequentially-consistent, cooperatively-scheduled
// world. The Go race detector is blind here — sim "threads" are
// goroutines that never run concurrently, so every Word access is
// data-race-free at the Go level no matter how broken the lock
// protocol is. The auditor instead reconstructs happens-before in
// *virtual* time from the Word-access stream (sim.MemObserver):
//
//   - program order: each thread's accesses in stream order;
//   - reads-from: a load (plain load, atomic RMW, futex value check)
//     observes the latest write to the word, which in a sequentially-
//     consistent simulator is a legitimate synchronization edge, so
//     loads acquire the word's release clock;
//   - RMW chains: every successful atomic publishes the writer's clock;
//   - spin exits: a SpinOn waiter that stops spinning has observed its
//     watched words, acquiring their release clocks;
//   - futex wakes: FUTEX_WAKE merges the waker's clock into the wakee
//     (spurious fault-injected wakes carry no edge).
//
// Against that graph two verdicts are reported:
//
//   racy-overwrite — a plain (non-atomic) value-changing store to a
//   word with a value-modifying write by another thread not ordered
//   before it. The store can silently destroy that write under a
//   different interleaving: the check-then-act bug class (tas-noatomic
//   overwriting a winner's claim, fgNoWake's plain release clobbering
//   the waiters' "blocked" state). Stores that do not change the value
//   are exempt: overwriting a value with itself destroys nothing (the
//   TAS unlock racing only against failed re-assertions is correct).
//
//   missed-signal — at run end, a scoped spinner stranded on a free,
//   long-inactive lock whose watched words carry no unobserved
//   modifying write: every signal that will ever arrive has already
//   arrived, so the wait can never end. This is the dropped-handover
//   bug class (mcs-nohandover), which no access-pair rule can catch
//   because the buggy unlock's access set is a strict subset of the
//   correct one.
//
// The auditor consumes serializable MemAccess records, so it runs
// attached to a live machine (AttachRace) or offline over a recorded
// trace (simtrace -races).

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// RaceKind names a race-auditor verdict.
type RaceKind string

// The race verdicts.
const (
	// RaceOverwrite: a plain store raced with another thread's
	// value-modifying write (see package comment).
	RaceOverwrite RaceKind = "racy-overwrite"
	// RaceMissedSignal: a spinner stranded with no unobserved signal in
	// flight on any watched word.
	RaceMissedSignal RaceKind = "missed-signal"
)

// Race is one detected virtual-time data race. Thread/ThreadAt identify
// the racing access (the store, or the stranded spinner and its wait
// start); Other/OtherAt the conflicting one (the overwritten write, or
// the last modifying write to the watched words). Other is -2 for
// kernel-side writes, -1 when unknown.
type Race struct {
	Kind     RaceKind
	At       sim.Time
	Word     int32
	WordName string
	Thread   int32
	ThreadAt sim.Time
	Other    int32
	OtherAt  sim.Time
	Lock     int32 // lock the racing thread was operating on, -1 unknown
	LockName string
	Detail   string
}

func (r Race) String() string {
	where := r.WordName
	if where == "" {
		where = fmt.Sprintf("word %d", r.Word)
	}
	lock := r.LockName
	if lock == "" && r.Lock >= 0 {
		lock = fmt.Sprintf("lock %d", r.Lock)
	}
	if lock != "" {
		lock = " [" + lock + "]"
	}
	return fmt.Sprintf("[%s] t=%d %s%s thread %d (at t=%d) vs thread %d (at t=%d): %s",
		r.Kind, r.At, where, lock, r.Thread, r.ThreadAt, r.Other, r.OtherAt, r.Detail)
}

// RaceOptions tunes the auditor. The zero value selects the defaults.
type RaceOptions struct {
	// StallBound gates the missed-signal verdict: the spinner's wait and
	// the lock's inactivity must both exceed it, mirroring the
	// stalled-waiter gate so in-flight handovers at the horizon are
	// never miscounted. Default 1e6 ticks.
	StallBound sim.Time
	// MaxRaces caps stored races (Total keeps counting). Default 32.
	MaxRaces int
	// Registry, when set, receives a counter per verdict
	// ("check.race.<kind>").
	Registry *obs.Registry
	// EmitEvents, when set (and the auditor is machine-attached), emits
	// a TraceViolation instant with sim.ViolationDataRace per race.
	EmitEvents bool
}

func (o *RaceOptions) fill() {
	if o.StallBound <= 0 {
		o.StallBound = 1_000_000
	}
	if o.MaxRaces <= 0 {
		o.MaxRaces = 32
	}
}

// MemAccess is the machine-independent form of one Word-access event:
// sim.MemEvent with words flattened to their dense IDs, so a recorded
// stream replays through the auditor without the machine that produced
// it.
type MemAccess struct {
	At       sim.Time
	Kind     sim.MemKind
	TID      int32
	Word     int32 // -1 for spin events
	Name     string
	Old, New uint64
	Wrote    bool
	Arg      int32
	Rel      bool
	Watch    []int32
}

// vclock is a vector clock indexed by slot (thread id + 2, so the
// kernel pseudo-context -2 occupies slot 0). Missing entries are zero.
type vclock []uint64

func slot(tid int32) int { return int(tid) + 2 }

func slotTID(s int) int32 { return int32(s) - 2 }

// growTo extends s with zero values until it has at least n entries.
func growTo[T any](s []T, n int) []T {
	for len(s) < n {
		var zero T
		s = append(s, zero)
	}
	return s
}

func (v vclock) get(i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func (v *vclock) set(i int, x uint64) {
	*v = growTo(*v, i+1)
	(*v)[i] = x
}

func (v *vclock) tick(i int) {
	*v = growTo(*v, i+1)
	(*v)[i]++
}

func (v *vclock) join(o vclock) {
	*v = growTo(*v, len(o))
	for i, x := range o {
		if x > (*v)[i] {
			(*v)[i] = x
		}
	}
}

// raceWord is the auditor's per-word view.
type raceWord struct {
	name string
	// rel is the word's release clock: the join of every writer's clock
	// at its write. Loads, successful RMWs and spin exits acquire it.
	rel vclock
	// mod[s] is slot s's epoch at its last value-modifying write;
	// modAt[s] the virtual time of that write.
	mod   vclock
	modAt []sim.Time
}

// raceThread is the auditor's per-thread view, indexed by slot.
type raceThread struct {
	clock vclock
	// spinning marks a live spin op (between MemSpinStart and
	// MemSpinExit); watch and since describe it. watch owns its backing
	// array, reused across spins.
	spinning bool
	watch    []int32
	since    sim.Time
	// waitingOn is the lock the thread last spun or blocked on, lastLock
	// the lock of its latest lock event; -1 when none.
	waitingOn int32
	lastLock  int32
}

// raceLock is the auditor's per-lock view from the lock-event stream:
// the holder set as a bitmap over slots plus its size.
type raceLock struct {
	held         []uint64
	holders      int
	lastActivity sim.Time
}

// RaceAuditor consumes the Word-access and lock-event streams and
// reports virtual-time data races. Attach to a live machine with
// AttachRace, or feed a recorded stream to Apply/LockEvent and call
// Finish. All state is rebuilt purely from events and kept in dense
// slices indexed by slot, word id and lock id, so a warm auditor
// allocates nothing per event; results are deterministic (races are
// appended in stream order, end-of-run scans walk slots in ascending
// order).
type RaceAuditor struct {
	m *sim.Machine // nil in replay mode
	o RaceOptions

	threads []raceThread
	words   []raceWord
	locks   []raceLock
	// global is the join of every writer clock, acquired by unscoped
	// spin exits (their conditions may read any word).
	global   vclock
	lockName func(int32) string

	// acc and watch are the scratch record MemEvent converts into.
	acc   MemAccess
	watch [3]int32

	races []Race
	// Total counts all races, including ones beyond MaxRaces.
	Total    int64
	finished bool
}

// NewRaceAuditor builds a detached auditor for offline replay.
func NewRaceAuditor(o RaceOptions) *RaceAuditor {
	o.fill()
	return &RaceAuditor{o: o, lockName: func(int32) string { return "" }}
}

// AttachRace installs an auditor on m: it becomes the machine's
// MemObserver and an additional LockObserver. Call before Run.
func AttachRace(m *sim.Machine, o RaceOptions) *RaceAuditor {
	a := NewRaceAuditor(o)
	a.m = m
	a.lockName = m.LockName
	m.SetMemObserver(a)
	m.AddLockObserver(a)
	return a
}

// SetLockNames installs a lock-name resolver for replay mode (attached
// auditors resolve through the machine).
func (a *RaceAuditor) SetLockNames(names map[int32]string) {
	a.lockName = func(id int32) string { return names[id] }
}

// Races returns the stored races (the full set after Finish).
func (a *RaceAuditor) Races() []Race { return a.races }

// MemEvent implements sim.MemObserver. ev is the machine's scratch
// record; it is converted field by field into the auditor's own scratch
// MemAccess, whose Watch uses a fixed buffer.
func (a *RaceAuditor) MemEvent(ev *sim.MemEvent) {
	acc := &a.acc
	acc.At, acc.Kind, acc.TID, acc.Word, acc.Name = ev.At, ev.Kind, ev.TID, -1, ""
	acc.Old, acc.New, acc.Wrote, acc.Arg, acc.Rel = ev.Old, ev.New, ev.Wrote, ev.Arg, ev.Rel
	acc.Watch = a.watch[:0]
	if ev.W != nil {
		acc.Word, acc.Name = ev.W.ID(), ev.W.Name()
	}
	for _, w := range ev.Watch {
		if w != nil {
			acc.Watch = append(acc.Watch, w.ID())
		}
	}
	a.apply(acc)
}

// thread returns tid's state, growing the slot table as needed. The
// pointer is valid until the next call that may grow the table.
func (a *RaceAuditor) thread(tid int32) *raceThread {
	s := slot(tid)
	for len(a.threads) <= s {
		a.threads = append(a.threads, raceThread{waitingOn: -1, lastLock: -1})
	}
	return &a.threads[s]
}

func (a *RaceAuditor) wordByID(id int32, name string) *raceWord {
	a.words = growTo(a.words, int(id)+1)
	w := &a.words[id]
	if w.name == "" {
		w.name = name
	}
	return w
}

func (a *RaceAuditor) lockState(id int32) *raceLock {
	a.locks = growTo(a.locks, int(id)+1)
	return &a.locks[id]
}

// Apply feeds one recorded Word-access record through the detector
// (the offline replay API).
func (a *RaceAuditor) Apply(acc MemAccess) { a.apply(&acc) }

func (a *RaceAuditor) apply(acc *MemAccess) {
	switch acc.Kind {
	case sim.MemLoad:
		w := a.wordByID(acc.Word, acc.Name)
		a.thread(acc.TID).clock.join(w.rel)
	case sim.MemRMW, sim.MemKernel:
		w := a.wordByID(acc.Word, acc.Name)
		c := &a.thread(acc.TID).clock
		c.join(w.rel)
		if acc.Wrote {
			a.release(acc, c, w)
		}
	case sim.MemStore:
		w := a.wordByID(acc.Word, acc.Name)
		c := &a.thread(acc.TID).clock
		if acc.Rel {
			// A release-annotated store is synchronization, not a plain
			// write: like an RMW it joins the word's clock and is never a
			// racy overwrite (FlexGuard's out-of-order drain deliberately
			// lets a stale handover store cross a re-enqueue, §3.2.3).
			c.join(w.rel)
		} else if acc.Old != acc.New {
			a.checkStore(acc, c, w)
		}
		a.release(acc, c, w)
	case sim.MemSpinStart:
		th := a.thread(acc.TID)
		// A resumed leg of the same (preempted) spin keeps since.
		if !th.spinning {
			th.spinning = true
			th.since = acc.At
		}
		th.watch = append(th.watch[:0], acc.Watch...)
	case sim.MemSpinExit:
		for _, id := range acc.Watch {
			a.wordByID(id, "")
		}
		th := a.thread(acc.TID)
		if len(acc.Watch) == 0 {
			th.clock.join(a.global)
		}
		for _, id := range acc.Watch {
			th.clock.join(a.words[id].rel)
		}
		th.spinning = false
	case sim.MemFutexWake:
		waker := a.thread(acc.TID).clock
		a.thread(acc.Arg).clock.join(waker)
	}
}

// release publishes the writer's clock into the word (and the global
// clock), recording the epoch of a value-modifying write.
func (a *RaceAuditor) release(acc *MemAccess, c *vclock, w *raceWord) {
	s := slot(acc.TID)
	c.tick(s)
	w.rel.join(*c)
	a.global.join(*c)
	if acc.Old != acc.New {
		w.mod.set(s, c.get(s))
		w.modAt = growTo(w.modAt, s+1)
		w.modAt[s] = acc.At
	}
}

// checkStore flags a plain value-changing store whose word carries a
// value-modifying write by another thread not ordered before the store.
func (a *RaceAuditor) checkStore(acc *MemAccess, c *vclock, w *raceWord) {
	self := slot(acc.TID)
	victim := -1
	var victimAt sim.Time
	for s, epoch := range w.mod {
		if s == self || epoch == 0 || epoch <= c.get(s) {
			continue
		}
		if victim < 0 || w.modAt[s] > victimAt {
			victim = s
			victimAt = w.modAt[s]
		}
	}
	if victim < 0 {
		return
	}
	lock := a.threads[self].lastLock
	a.flag(Race{
		Kind: RaceOverwrite, At: acc.At, Word: acc.Word, WordName: w.name,
		Thread: acc.TID, ThreadAt: acc.At,
		Other: slotTID(victim), OtherAt: victimAt,
		Lock: lock, LockName: a.lockName(lock),
		Detail: fmt.Sprintf("plain store %d -> %d overwrites thread %d's unobserved write",
			acc.Old, acc.New, slotTID(victim)),
	})
	// Treat the racing writes as observed so one sync gap is reported
	// once, not once per subsequent store.
	c.join(w.mod)
}

// flag records one race.
func (a *RaceAuditor) flag(r Race) {
	a.Total++
	if a.o.Registry != nil {
		a.o.Registry.Counter("check.race." + string(r.Kind)).Inc()
	}
	if len(a.races) < a.o.MaxRaces {
		a.races = append(a.races, r)
	}
	if a.o.EmitEvents && a.m != nil {
		a.m.KernelLockEvent(sim.TraceViolation, r.Lock, r.Thread, sim.ViolationDataRace)
	}
}

// LockEvent implements sim.LockObserver: the auditor tracks holders,
// waiters and per-lock activity to gate the missed-signal verdict and
// to label races with the lock being operated on.
func (a *RaceAuditor) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	if !kind.IsLockEvent() || lock < 0 {
		return
	}
	switch kind {
	case sim.TraceViolation, sim.TraceMonitorStale, sim.TracePolicySwitch,
		sim.TraceNPCSUp, sim.TraceNPCSDown:
		return
	}
	l := a.lockState(lock)
	l.lastActivity = at
	th := a.thread(tid)
	th.lastLock = lock
	s := slot(tid)
	l.held = growTo(l.held, s/64+1)
	bit := uint64(1) << (s % 64)
	held := l.held[s/64]&bit != 0
	switch kind {
	case sim.TraceAcquire:
		if !held {
			l.held[s/64] |= bit
			l.holders++
		}
		th.waitingOn = -1
	case sim.TraceRelease:
		if held {
			l.held[s/64] &^= bit
			l.holders--
		}
	case sim.TraceSpinStart, sim.TraceLockBlock:
		if !held {
			th.waitingOn = lock
		}
	}
}

// Finish runs the end-of-run missed-signal scan. quiesced is the value
// Run returned. Call exactly once; returns all stored races.
func (a *RaceAuditor) Finish(quiesced sim.Time) []Race {
	if a.finished {
		return a.races
	}
	a.finished = true
	for s := range a.threads {
		th := &a.threads[s]
		if !th.spinning || len(th.watch) == 0 {
			continue // unscoped: no watch set to prove exhaustion over
		}
		lock := th.waitingOn
		if lock < 0 {
			continue // not spinning on a lock (workload-level spin)
		}
		l := &a.locks[lock]
		if l.holders > 0 {
			continue // a live holder may still signal it
		}
		if quiesced-th.since <= a.o.StallBound || quiesced-l.lastActivity <= a.o.StallBound {
			continue // possibly just a handover in flight at the horizon
		}
		// The race condition proper: no watched word carries a modifying
		// write the spinner has not already observed — every signal that
		// will ever arrive has arrived, and the spinner still waits.
		pending := false
		primary := int32(-1)
		var lastWriter int32 = -1
		var lastAt sim.Time
		for _, id := range th.watch {
			w := a.wordByID(id, "")
			for sl, epoch := range w.mod {
				if epoch == 0 {
					continue
				}
				if epoch > th.clock.get(sl) {
					pending = true
				}
				if w.modAt[sl] >= lastAt {
					lastAt = w.modAt[sl]
					lastWriter = slotTID(sl)
					primary = id
				}
			}
		}
		if pending {
			continue
		}
		if primary < 0 {
			primary = th.watch[0]
		}
		tid := slotTID(s)
		a.flag(Race{
			Kind: RaceMissedSignal, At: quiesced, Word: primary, WordName: a.wordByID(primary, "").name,
			Thread: tid, ThreadAt: th.since,
			Other: lastWriter, OtherAt: lastAt,
			Lock: lock, LockName: a.lockName(lock),
			Detail: fmt.Sprintf("spinner stranded since t=%d on a lock inactive since t=%d; all watched-word writes observed — the wake signal was never written",
				th.since, l.lastActivity),
		})
	}
	return a.races
}
