package check

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// spinLock is a test-and-test-and-set lock that reports its acquire,
// release and spin events. Its spin condition is bound once, so the lock
// itself allocates nothing per acquire (the registry's spin locks build
// a fresh condition closure per wait).
type spinLock struct {
	id   int32
	w    *sim.Word
	held func() bool
}

func newSpinLock(m *sim.Machine) *spinLock {
	l := &spinLock{id: m.RegisterLockName("L"), w: m.NewWord("L.w", 0)}
	l.held = func() bool { return l.w.V() != 0 }
	return l
}

func (l *spinLock) lock(p *sim.Proc) {
	for p.CAS(l.w, 0, 1) != 0 {
		p.LockEvent(sim.TraceSpinStart, l.id)
		p.SpinOn(l.held, l.w)
	}
	p.LockEvent(sim.TraceAcquire, l.id)
}

func (l *spinLock) unlock(p *sim.Proc) {
	p.LockEvent(sim.TraceRelease, l.id)
	p.Store(l.w, 0)
}

// TestObserverSteadyStateAllocs is the observed counterpart of the
// simulator's TestSteadySteppingAllocs: with the invariant checker and
// the race auditor attached to a contended spin lock, stepping must
// allocate nothing per operation once the observers' dense tables have
// grown to the run's threads, words and locks. Allocations are counted
// between two instants well inside the run, so set-up and warm-up are
// excluded and the bound is exactly zero.
func TestObserverSteadyStateAllocs(t *testing.T) {
	const horizon = 4_000_000
	m := sim.New(sim.Small(4))
	ck := Attach(m, Options{EmitEvents: true})
	ra := AttachRace(m, RaceOptions{EmitEvents: true})
	l := newSpinLock(m)
	ctr := m.NewWord("ctr", 0)
	var ops int64
	for i := 0; i < 3; i++ {
		m.Spawn("w", func(p *sim.Proc) {
			for p.Now() < horizon {
				l.lock(p)
				p.IncCS()
				p.Store(ctr, p.Load(ctr)+1)
				p.Compute(200)
				p.DecCS()
				l.unlock(p)
				p.Compute(100)
				ops++
			}
		})
	}
	var ms runtime.MemStats
	var warm, end uint64
	var opsWarm, opsEnd int64
	m.Schedule(horizon/4, func() {
		runtime.ReadMemStats(&ms)
		warm, opsWarm = ms.Mallocs, ops
	})
	m.Schedule(horizon-horizon/8, func() {
		runtime.ReadMemStats(&ms)
		end, opsEnd = ms.Mallocs, ops
	})
	q := m.Run(horizon)
	if vs := ck.Finish(q); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if rs := ra.Finish(q); len(rs) != 0 {
		t.Fatalf("races: %v", rs)
	}
	if n := opsEnd - opsWarm; n < 1000 || ctr.V() != uint64(ops) {
		t.Fatalf("degenerate run: %d ops in the measured window, counter %d of %d", n, ctr.V(), ops)
	}
	if allocs := end - warm; allocs != 0 {
		t.Fatalf("%d allocations over %d observed ops once warm; want 0", allocs, opsEnd-opsWarm)
	}
}
