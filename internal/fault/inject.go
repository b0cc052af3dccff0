package fault

import (
	"repro/internal/dist"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// Injector realizes a Plan against one machine: it implements
// sim.FaultInjector for the scheduler/futex faults and programs the
// monitor's degradation mode for the NPCS faults. All randomness comes
// from its own seeded stream (decoupled from the machine's RNG so that
// attaching an injector never perturbs the machine's existing draws —
// a plan-free run stays byte-identical to an uninjected one).
type Injector struct {
	plan    Plan
	rng     *dist.Rand
	crashes bool // plan.Crashes(), kept to spare the boundary seam a Plan copy

	// Crash-role tracking, fed by the lock-event stream when the plan
	// kills threads: which threads currently hold a lock and which are
	// waiting for one. This works for every lock in the registry with
	// zero lock-code changes — the same events the checker consumes.
	holding map[int32]int
	waiting map[int32]bool

	// parkedPending counts parked-delay kills scheduled but not yet
	// resolved; they hold budget so an in-flight kill cannot be
	// double-booked, but only land into Crashes if the kill fires.
	parkedPending int64

	// Diagnostics, readable after the run. Crashes counts kills that
	// actually happened (threads transitioned to StateDead), not kills
	// merely scheduled — ValidateCrashed's tolerance and the crash-aware
	// verdicts are keyed off it.
	ForcedPreempts int64
	SpuriousWakes  int64
	Crashes        int64
}

// Apply wires plan into machine m (and, when mon is non-nil and the
// plan degrades the monitor, into the monitor). Call before Run.
// Returns nil for the zero plan.
func Apply(m *sim.Machine, mon *monitor.Monitor, plan Plan, seed uint64) *Injector {
	if plan.IsZero() {
		return nil
	}
	inj := &Injector{plan: plan, rng: dist.NewRand(seed ^ 0xfa17_5eed_c0de), crashes: plan.Crashes()}
	if plan.PerturbsSim() {
		m.SetFaultInjector(inj)
	}
	if plan.Crashes() {
		inj.holding = make(map[int32]int)
		inj.waiting = make(map[int32]bool)
		m.AddLockObserver(inj)
	}
	if mon != nil && plan.DegradesMonitor() {
		mon.Degrade(&monitor.Degradation{
			DelaySwitches: plan.NPCSDelay,
			DropProb:      plan.DropSwitchProb,
			DetachAfter:   plan.DetachAfter,
			StuckEnabled:  plan.StuckEnabled,
			StuckNPCS:     plan.StuckNPCS,
			Rand:          dist.NewRand(seed ^ 0xdeca_ded),
		})
	}
	return inj
}

// SliceGrant implements sim.FaultInjector.
func (i *Injector) SliceGrant(t *sim.Thread, slice sim.Time) sim.Time {
	j := i.plan.SliceJitterPct
	if j <= 0 {
		return slice
	}
	factor := 1 + j*(2*i.rng.Float64()-1)
	out := sim.Time(float64(slice) * factor)
	if out < 1 {
		out = 1
	}
	return out
}

// PreemptAtBoundary implements sim.FaultInjector: the most specific
// matching probability wins (CS > label window > any).
func (i *Injector) PreemptAtBoundary(t *sim.Thread) bool {
	p := i.plan.PreemptAnyProb
	if t.Region != sim.RegionNone && i.plan.PreemptWindowProb > p {
		p = i.plan.PreemptWindowProb
	}
	if t.CSCounter > 0 && i.plan.PreemptCSProb > p {
		p = i.plan.PreemptCSProb
	}
	if p <= 0 || i.rng.Float64() >= p {
		return false
	}
	i.ForcedPreempts++
	return true
}

// WakeDelay implements sim.FaultInjector.
func (i *Injector) WakeDelay(t *sim.Thread, lat sim.Time) sim.Time {
	return lat + i.plan.WakeDelay
}

// SpuriousWakeDelay implements sim.FaultInjector.
func (i *Injector) SpuriousWakeDelay(t *sim.Thread) sim.Time {
	pr := i.plan.SpuriousWakeProb
	if pr <= 0 || i.rng.Float64() >= pr {
		return 0
	}
	i.SpuriousWakes++
	after := i.plan.SpuriousWakeAfter
	if after <= 0 {
		after = 10_000
	}
	// Spread arrivals so storms do not land in lockstep.
	return after + sim.Time(i.rng.Intn(int(after)))
}

// crashBudget is the total kills this plan may perform.
func (i *Injector) crashBudget() int64 {
	if i.plan.CrashMax > 0 {
		return int64(i.plan.CrashMax)
	}
	return 1
}

// budgetUsed is the budget already spoken for: landed kills plus
// scheduled parked kills awaiting their outcome.
func (i *Injector) budgetUsed() int64 { return i.Crashes + i.parkedPending }

// CrashAtBoundary implements sim.CrashInjector: the most specific
// matching probability wins (holder > label window > queue waiter).
// With the kill budget exhausted (or no crash probabilities set) it
// returns without drawing, so non-crash plans keep their random streams
// byte-identical to before the crash model existed.
func (i *Injector) CrashAtBoundary(t *sim.Thread) bool {
	if !i.crashes || i.budgetUsed() >= i.crashBudget() {
		return false
	}
	var p float64
	id := int32(t.ID())
	if i.holding[id] > 0 || t.CSCounter > 0 {
		p = i.plan.CrashHoldProb
	}
	if t.Region != sim.RegionNone && i.plan.CrashWindowProb > p {
		p = i.plan.CrashWindowProb
	}
	if i.waiting[id] && i.plan.CrashQueueProb > p {
		p = i.plan.CrashQueueProb
	}
	if p <= 0 || i.rng.Float64() >= p {
		return false
	}
	i.Crashes++
	return true
}

// CrashParkedDelay implements sim.CrashInjector: a just-parked futex
// waiter is killed in place after the delay. The scheduled kill
// reserves budget via parkedPending; it only counts into Crashes when
// CrashParkedOutcome reports that it landed (the waiter can be woken —
// or finish — before the delay elapses, in which case the machine skips
// the kill).
func (i *Injector) CrashParkedDelay(t *sim.Thread) sim.Time {
	pr := i.plan.CrashParkedProb
	if pr <= 0 || i.budgetUsed() >= i.crashBudget() || i.rng.Float64() >= pr {
		return 0
	}
	i.parkedPending++
	after := i.plan.CrashParkedAfter
	if after <= 0 {
		after = 5_000
	}
	return after + sim.Time(i.rng.Intn(int(after)))
}

// CrashParkedOutcome implements sim.CrashInjector: release the budget
// reservation and count the crash only if the kill landed.
func (i *Injector) CrashParkedOutcome(t *sim.Thread, landed bool) {
	i.parkedPending--
	if landed {
		i.Crashes++
	}
}

// LockEvent implements sim.LockObserver, maintaining the holder/waiter
// role sets the crash predicates target. Attached only for crash plans.
func (i *Injector) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	switch kind {
	case sim.TraceAcquire:
		i.holding[tid]++
		delete(i.waiting, tid)
	case sim.TraceRelease:
		if i.holding[tid] > 0 {
			i.holding[tid]--
		}
	case sim.TraceSpinStart, sim.TraceLockBlock:
		i.waiting[tid] = true
	case sim.TraceCrash:
		delete(i.holding, tid)
		delete(i.waiting, tid)
	}
}
