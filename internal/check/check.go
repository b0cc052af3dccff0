// Package check is an online invariant checker for lock algorithms: it
// consumes the machine's lock-event stream (the PR-1 trace model) and
// verifies run-wide correctness properties — mutual exclusion, no lost
// wakeup, bounded starvation, no stalled waiters, deadlock freedom and
// acquisition-count conservation. It exists because throughput numbers
// cannot distinguish "slow" from "wrong": a lock that loses a wakeup or
// admits two holders under an adversarial schedule still posts
// plausible-looking counters. The checker turns such runs into
// structured, replayable failures.
//
// Attach before Run with Attach, then call Finish with the quiesced
// time Run returned. Violations are also surfaced through internal/obs
// (a counter per invariant) and as TraceViolation instants in the
// trace, so a failing schedule can be opened in the Perfetto viewer at
// the exact violation timestamp.
package check

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Invariant names a checked property.
type Invariant string

// The checked invariants.
const (
	// MutualExclusion: at most one thread holds a lock at any time
	// (a second Acquire before the holder's Release).
	MutualExclusion Invariant = "mutual-exclusion"
	// LostWakeup: a thread parked on a lock's futex with no holder left
	// to wake it — every Block must have a matching Wake or run-end.
	LostWakeup Invariant = "lost-wakeup"
	// Starvation: a continuously-waiting thread was passed more than K
	// times by later arrivals.
	Starvation Invariant = "starvation"
	// StalledWaiter: a waiter made no progress on a free, inactive lock
	// for longer than the stall bound (e.g. a spinner whose handover
	// never came).
	StalledWaiter Invariant = "stalled-waiter"
	// Deadlock: the event queue drained before the horizon with threads
	// still blocked — the silent-hang failure mode, as a structured
	// verdict with an owner/waiter dump.
	Deadlock Invariant = "deadlock"
	// Conservation: per lock, acquisitions == releases + live holders.
	Conservation Invariant = "conservation"
	// OrphanedLock: a crashed thread left the lock unusable — dead
	// holder never released, or a dead participant left live waiters
	// stranded with nobody to hand over. This is the *clean* crash
	// verdict: a lock under a crash plan must either recover or orphan
	// deterministically, never hang without attribution.
	OrphanedLock Invariant = "orphaned-lock"
)

// Code returns the sim.Violation* code carried on TraceViolation events.
func (i Invariant) Code() int32 {
	switch i {
	case MutualExclusion:
		return sim.ViolationMutualExclusion
	case LostWakeup:
		return sim.ViolationLostWakeup
	case Starvation:
		return sim.ViolationStarvation
	case StalledWaiter:
		return sim.ViolationStalledWaiter
	case Deadlock:
		return sim.ViolationDeadlock
	case Conservation:
		return sim.ViolationConservation
	case OrphanedLock:
		return sim.ViolationOrphanedLock
	default:
		return 0
	}
}

// Violation is one detected invariant breach.
type Violation struct {
	Invariant Invariant
	At        sim.Time
	Lock      int32 // lock id, -1 for machine-wide (deadlock)
	LockName  string
	Thread    int32 // offending / affected thread, -1 if not applicable
	Detail    string
}

func (v Violation) String() string {
	where := v.LockName
	if where == "" {
		where = fmt.Sprintf("lock %d", v.Lock)
	}
	if v.Lock < 0 {
		where = "machine"
	}
	return fmt.Sprintf("[%s] t=%d %s thread=%d: %s", v.Invariant, v.At, where, v.Thread, v.Detail)
}

// Options tunes the checker. The zero value selects the defaults.
type Options struct {
	// StarvationK is the pass bound: a continuously-waiting thread
	// overtaken by more than K acquisitions is starved. The default is
	// deliberately huge (100000) because unfair-by-design locks (TAS,
	// backoff) legitimately pass waiters; tighten it per run to study
	// fairness.
	StarvationK int64
	// StallBound is how long (virtual ticks) a waiter may sit on a
	// free, inactive lock before being declared stalled. Default 1e6.
	StallBound sim.Time
	// MaxViolations caps stored violations (counters keep counting).
	// Default 32.
	MaxViolations int
	// Registry, when set, receives a counter per violated invariant
	// ("check.violation.<name>").
	Registry *obs.Registry
	// EmitEvents, when set, emits a TraceViolation event at each
	// violation so traces carry the verdicts (off by default; the fuzz
	// harness turns it on).
	EmitEvents bool
}

func (o *Options) fill() {
	if o.StarvationK <= 0 {
		o.StarvationK = 100_000
	}
	if o.StallBound <= 0 {
		o.StallBound = 1_000_000
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 32
	}
}

// lockSlot is one thread's standing with one lock: holding since
// heldAt, and/or waiting since since, passed passes times (flagged once
// starvation is reported).
type lockSlot struct {
	holding bool
	heldAt  sim.Time
	waiting bool
	since   sim.Time
	passes  int64
	flagged bool
}

// lockState is the checker's per-lock view, rebuilt purely from events.
// Per-thread standing is a dense slice indexed by slot, so walks over
// holders and waiters visit them in thread-id order.
type lockState struct {
	id       int32
	slots    []lockSlot
	holders  int // slots holding
	waiters  int // slots waiting
	acquires int64
	releases int64
	// lastActivity: last event of any kind on the lock.
	lastActivity sim.Time
	// lastProgress: last time ownership changed (acquire, release,
	// handover, owner-death repair, recovery, abandon). Spinning waiters
	// refresh lastActivity forever; this is the signal that the lock
	// itself stopped moving.
	lastProgress sim.Time
	// ownerDied: the kernel robust walk flagged this lock's holder dead
	// and no claimer has recovered it yet.
	ownerDied bool
	// crashPart: a thread that later crashed participated in this lock
	// (basis for attributing stranded waiters to the crash).
	crashPart bool
}

// slot returns tid's standing with the lock. The pointer is valid until
// the next call that may grow the slot table.
func (ls *lockState) slot(tid int32) *lockSlot {
	ls.slots = growTo(ls.slots, slot(tid)+1)
	return &ls.slots[slot(tid)]
}

// threadState is the checker's per-thread view, indexed by slot.
type threadState struct {
	// intent is the lock named in the thread's most recent
	// TraceLockBlock — the lock it is about to park on — or -2.
	intent int32
	// parked: the thread is parked on a futex (scheduler TraceBlock
	// seen, no TraceWake yet) since parkedAt, on lock parkLock (-2 when
	// the park was not lock-related).
	parked   bool
	parkLock int32
	parkedAt sim.Time
	// dead marks a crashed thread (TraceCrash); touched is a bitmap over
	// the lock ids it has emitted events on, so a crash can be
	// attributed to the locks the corpse was involved with.
	dead    bool
	touched []uint64
}

// Checker consumes lock events and verifies invariants online. It is a
// sim.LockObserver; attach with Attach (which uses AddLockObserver so
// it coexists with the obs stats observer). Its state lives in dense
// slices indexed by lock id and thread slot, so a warm checker
// allocates nothing per event.
type Checker struct {
	m          *sim.Machine
	o          Options
	locks      []*lockState  // by lock id; nil before the lock's first event
	threads    []threadState // by slot
	nDead      int           // threads crashed
	violations []Violation
	// Total counts all violations, including ones beyond MaxViolations.
	Total    int64
	finished bool
}

// Attach installs a checker on m. Call before Run.
func Attach(m *sim.Machine, o Options) *Checker {
	o.fill()
	c := &Checker{m: m, o: o}
	m.AddLockObserver(c)
	return c
}

// Violations returns the stored violations (post-Finish for the full
// set; online ones are available at any time).
func (c *Checker) Violations() []Violation { return c.violations }

func (c *Checker) lock(id int32) *lockState {
	c.locks = growTo(c.locks, int(id)+1)
	ls := c.locks[id]
	if ls == nil {
		ls = &lockState{id: id}
		c.locks[id] = ls
	}
	return ls
}

// thread returns tid's state, growing the slot table as needed. The
// pointer is valid until the next call that may grow the table.
func (c *Checker) thread(tid int32) *threadState {
	for len(c.threads) <= slot(tid) {
		c.threads = append(c.threads, threadState{intent: -2})
	}
	return &c.threads[slot(tid)]
}

// parkedOn returns the lock tid is parked on (-2 when not lock-related)
// and whether it is parked at all.
func (c *Checker) parkedOn(tid int32) (int32, bool) {
	if s := slot(tid); s < len(c.threads) && c.threads[s].parked {
		return c.threads[s].parkLock, true
	}
	return 0, false
}

func (c *Checker) isDead(tid int32) bool {
	s := slot(tid)
	return s < len(c.threads) && c.threads[s].dead
}

func (c *Checker) violate(v Violation) {
	c.Total++
	if c.o.Registry != nil {
		c.o.Registry.Counter("check.violation." + string(v.Invariant)).Inc()
	}
	if len(c.violations) < c.o.MaxViolations {
		c.violations = append(c.violations, v)
	}
	if c.o.EmitEvents {
		c.m.KernelLockEvent(sim.TraceViolation, v.Lock, v.Thread, v.Invariant.Code())
	}
}

// LockEvent implements sim.LockObserver.
func (c *Checker) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	switch kind {
	case sim.TraceViolation, sim.TraceMonitorStale,
		sim.TracePolicySwitch, sim.TraceNPCSUp, sim.TraceNPCSDown:
		return // policy / self-emitted events carry no lock state
	case sim.TraceCrash:
		c.crashed(tid)
		return
	case sim.TraceBlock:
		// Scheduler-level park: bind it to the lock last named in a
		// TraceLockBlock by this thread (if any).
		th := c.thread(tid)
		th.parked, th.parkLock, th.parkedAt = true, th.intent, at
		return
	case sim.TraceWake:
		c.thread(tid).parked = false
		return
	case sim.TraceSleep, sim.TraceExit, sim.TraceSwitch:
		return
	}
	if lock < 0 {
		return
	}
	// A thread emitting a lock event is on-CPU: it cannot be parked.
	// (Kernel-emitted crash events name a dead thread instead; those are
	// never parked — crashed() cleared them.) Violations re-enter
	// LockEvent only with TraceViolation, which returns above, so th and
	// the lock's slot pointers stay valid across violate.
	th := c.thread(tid)
	th.parked = false
	ls := c.lock(lock)
	ls.lastActivity = at
	switch kind {
	case sim.TraceAcquire, sim.TraceRelease, sim.TraceHandover,
		sim.TraceOwnerDead, sim.TraceRecover, sim.TraceAbandon:
		ls.lastProgress = at
	}
	if !th.dead {
		th.touched = growTo(th.touched, int(lock)/64+1)
		th.touched[lock/64] |= 1 << (lock % 64)
	}
	me := ls.slot(tid)
	switch kind {
	case sim.TraceAcquire:
		if ls.holders > 0 {
			// Report against the lowest-tid holder so the violation detail
			// is stable when (pathologically) more than one thread holds
			// the lock.
			other := 0
			for !ls.slots[other].holding {
				other++
			}
			c.violate(Violation{
				Invariant: MutualExclusion, At: at, Lock: lock,
				LockName: c.m.LockName(lock), Thread: tid,
				Detail: fmt.Sprintf("acquired while thread %d holds it (since t=%d)", slotTID(other), ls.slots[other].heldAt),
			})
		}
		if !me.holding {
			me.holding = true
			ls.holders++
		}
		me.heldAt = at
		ls.acquires++
		if me.waiting {
			me.waiting = false
			ls.waiters--
		}
		th.intent = -2
		// Waiters in thread-id order, so two waiters crossing the
		// starvation threshold on the same acquire report in a fixed
		// order.
		for s := 0; ls.waiters > 0 && s < len(ls.slots); s++ {
			w := &ls.slots[s]
			if !w.waiting {
				continue
			}
			w.passes++
			if w.passes > c.o.StarvationK && !w.flagged {
				w.flagged = true
				c.violate(Violation{
					Invariant: Starvation, At: at, Lock: lock,
					LockName: c.m.LockName(lock), Thread: slotTID(s),
					Detail: fmt.Sprintf("waiting since t=%d, passed %d times (K=%d)", w.since, w.passes, c.o.StarvationK),
				})
			}
		}
	case sim.TraceRelease:
		if !me.holding {
			c.violate(Violation{
				Invariant: Conservation, At: at, Lock: lock,
				LockName: c.m.LockName(lock), Thread: tid,
				Detail: "release without a matching acquire",
			})
		} else {
			me.holding = false
			ls.holders--
		}
		ls.releases++
	case sim.TraceSpinStart:
		if !me.holding {
			ls.wait(me, at)
		}
	case sim.TraceLockBlock:
		th.intent = lock
		ls.wait(me, at)
	case sim.TraceOwnerDead:
		// Kernel robust walk: the dead holder's ownership ends here.
		// Counting it as a release keeps conservation balanced through
		// the recovery; if the thread died inside an acquire window
		// before its Acquire event, there is nothing to balance.
		ls.crashPart = true
		ls.ownerDied = true
		if me.holding {
			me.holding = false
			ls.holders--
			ls.releases++
		}
	case sim.TraceRecover:
		// A claimer took over the owner-died lock (EOWNERDEAD); its own
		// Acquire event follows.
		ls.ownerDied = false
	case sim.TraceAbandon:
		// A dead or stale waiter's queue node was unlinked; it is no
		// longer waiting (a live removed waiter re-enters from scratch
		// and re-announces itself).
		if arg >= 0 {
			ls.unwait(arg)
		}
	}
}

// wait records slot me as waiting since at, unless it already waits.
func (ls *lockState) wait(me *lockSlot, at sim.Time) {
	if !me.waiting {
		me.waiting, me.since, me.passes, me.flagged = true, at, 0, false
		ls.waiters++
	}
}

// unwait drops tid from the lock's waiters.
func (ls *lockState) unwait(tid int32) {
	if s := slot(tid); s < len(ls.slots) && ls.slots[s].waiting {
		ls.slots[s].waiting = false
		ls.waiters--
	}
}

// crashed processes a TraceCrash: remember the corpse, clear its
// transient waiter state everywhere, and attribute the crash to every
// lock it participated in. Dead holders deliberately stay holders — a
// lock held by a corpse is the orphan candidate Finish looks for.
func (c *Checker) crashed(tid int32) {
	th := c.thread(tid)
	if !th.dead {
		th.dead = true
		c.nDead++
	}
	if c.o.Registry != nil {
		c.o.Registry.Counter("check.crashes").Inc()
	}
	th.parked = false
	th.intent = -2
	for lk, ls := range c.locks {
		if lk/64 < len(th.touched) && th.touched[lk/64]&(1<<(lk%64)) != 0 {
			ls.crashPart = true
			ls.unwait(tid)
		}
	}
}

// liveHolders counts holders that have not crashed. A dead thread still
// "holds" for conservation purposes, but it will never wake anyone —
// liveness exemptions must not credit it (the bug this replaces: a dead
// holder masked real stalls).
func (c *Checker) liveHolders(ls *lockState) int {
	n := 0
	for s := range ls.slots {
		if ls.slots[s].holding && !c.isDead(slotTID(s)) {
			n++
		}
	}
	return n
}

// Finish runs the end-of-run checks. quiesced is the value Run returned
// (the time the machine went quiescent). Call exactly once, after Run.
// Results are deterministic: end-of-run scans walk lock ids and thread
// slots in ascending order.
func (c *Checker) Finish(quiesced sim.Time) []Violation {
	if c.finished {
		return c.violations
	}
	c.finished = true
	drained := c.m.Deadlocked()
	threads := c.m.Threads()

	// Crash triage first: classify locks wedged by a dead participant so
	// each reports one structured orphaned-lock verdict instead of a
	// spray of deadlock / lost-wakeup / stalled noise. Crash-free runs
	// have an empty dead set and skip all of this.
	orphaned := make(map[int32]bool)
	if c.nDead > 0 {
		for _, ls := range c.locks {
			if ls == nil {
				continue
			}
			id := ls.id
			if dh := ls.holders - c.liveHolders(ls); dh > 0 {
				orphaned[id] = true
				c.violate(Violation{
					Invariant: OrphanedLock, At: quiesced, Lock: id,
					LockName: c.m.LockName(id), Thread: -1,
					Detail: fmt.Sprintf("%d dead holder(s) never released the lock", dh),
				})
				continue
			}
			if c.liveHolders(ls) > 0 || !ls.crashPart {
				continue
			}
			if c.strandedOn(id, ls, quiesced, drained, threads) {
				orphaned[id] = true
				c.violate(Violation{
					Invariant: OrphanedLock, At: quiesced, Lock: id,
					LockName: c.m.LockName(id), Thread: -1,
					Detail: "crashed participant left live waiters stranded with no holder",
				})
			}
		}
	}

	if drained && !c.crashExplainsDrain(orphaned) {
		c.violate(Violation{
			Invariant: Deadlock, At: quiesced, Lock: -1, Thread: -1,
			Detail: c.m.DeadlockReport(),
		})
	}
	// Lost wakeups: threads still parked at run end on a lock nobody
	// holds. After a drain no future wake can arrive, so any such park
	// is lost; if the run hit its horizon instead, require the park and
	// the lock's inactivity to both exceed the stall bound so in-flight
	// wake chains are not miscounted.
	for s := range c.threads {
		th := &c.threads[s]
		tid, lockID := slotTID(s), th.parkLock
		if !th.parked || int(tid) >= len(threads) || threads[tid].State() != sim.StateBlocked {
			continue
		}
		if lockID < 0 {
			continue // parked on something that is not a lock (barrier etc.)
		}
		if orphaned[lockID] {
			continue // already reported as the orphaned-lock verdict
		}
		ls := c.lock(lockID)
		if c.liveHolders(ls) > 0 {
			continue // a live holder may still wake it; deadlock check covers the rest
		}
		if !drained {
			if quiesced-th.parkedAt <= c.o.StallBound || quiesced-ls.lastActivity <= c.o.StallBound {
				continue
			}
		}
		c.violate(Violation{
			Invariant: LostWakeup, At: quiesced, Lock: lockID,
			LockName: c.m.LockName(lockID), Thread: tid,
			Detail: fmt.Sprintf("parked at t=%d, lock free since t=%d, nobody left to wake it", th.parkedAt, ls.lastActivity),
		})
	}
	// Stalled waiters: non-parked waiters (spinners) stuck on a free,
	// inactive lock. Only meaningful when the run hit its horizon — a
	// quiesced machine has no spinners by construction.
	for _, ls := range c.locks {
		if ls == nil || orphaned[ls.id] || c.liveHolders(ls) > 0 {
			continue
		}
		for s := range ls.slots {
			w := &ls.slots[s]
			wtid := slotTID(s)
			if !w.waiting {
				continue
			}
			if _, isParked := c.parkedOn(wtid); isParked {
				continue
			}
			if int(wtid) >= len(threads) || threads[wtid].State() == sim.StateDone ||
				threads[wtid].State() == sim.StateDead {
				continue
			}
			if quiesced-w.since > c.o.StallBound && quiesced-ls.lastActivity > c.o.StallBound {
				c.violate(Violation{
					Invariant: StalledWaiter, At: quiesced, Lock: ls.id,
					LockName: c.m.LockName(ls.id), Thread: wtid,
					Detail: fmt.Sprintf("waiting since t=%d on a lock free and inactive since t=%d", w.since, ls.lastActivity),
				})
			}
		}
	}
	// Conservation: acquisitions == releases + holders left, per lock.
	// Dead holders still count as holders here — a kernel-recovered lock
	// balanced its books through the TraceOwnerDead release instead.
	for _, ls := range c.locks {
		if ls != nil && ls.acquires != ls.releases+int64(ls.holders) {
			c.violate(Violation{
				Invariant: Conservation, At: quiesced, Lock: ls.id,
				LockName: c.m.LockName(ls.id), Thread: -1,
				Detail: fmt.Sprintf("%d acquires vs %d releases + %d live holders", ls.acquires, ls.releases, ls.holders),
			})
		}
	}
	return c.violations
}

// strandedOn reports whether some live thread is durably stuck on lock
// id: parked on it, or in its waiter set, past the point where progress
// could still be in flight (any leftover wait is terminal once the
// machine drained; horizon-ended runs apply the stall bound).
func (c *Checker) strandedOn(id int32, ls *lockState, quiesced sim.Time, drained bool, threads []*sim.Thread) bool {
	for s := range c.threads {
		th := &c.threads[s]
		tid := slotTID(s)
		if !th.parked || th.parkLock != id || int(tid) >= len(threads) || threads[tid].State() != sim.StateBlocked {
			continue
		}
		if drained || quiesced-th.parkedAt > c.o.StallBound {
			return true
		}
	}
	for s := range ls.slots {
		wtid := slotTID(s)
		if !ls.slots[s].waiting || int(wtid) >= len(threads) {
			continue
		}
		if st := threads[wtid].State(); st == sim.StateDone || st == sim.StateDead {
			continue
		}
		if drained || (quiesced-ls.slots[s].since > c.o.StallBound && quiesced-ls.lastProgress > c.o.StallBound) {
			return true
		}
	}
	return false
}

// crashExplainsDrain reports whether every thread still blocked at the
// drain is parked on a lock already reported orphaned — in which case
// the drain is the orphan's consequence, not a separate deadlock.
func (c *Checker) crashExplainsDrain(orphaned map[int32]bool) bool {
	if len(orphaned) == 0 {
		return false
	}
	for _, th := range c.m.Threads() {
		if th.State() != sim.StateBlocked {
			continue
		}
		lk, ok := c.parkedOn(int32(th.ID()))
		if !ok || lk < 0 || !orphaned[lk] {
			return false
		}
	}
	return true
}
