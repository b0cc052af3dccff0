package hashtable

import (
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/monitor"
	"repro/internal/sim"
)

func TestHashTableConsistency(t *testing.T) {
	cfg := sim.Small(4)
	cfg.Seed = 1
	m := sim.New(cfg)
	w := Build(m, Options{
		Threads:  8,
		Deadline: 10_000_000,
		NewLock:  func(n string) locks.Lock { return locks.NewMCS(m, n) },
	})
	m.Run(15_000_000)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	var ops int64
	for _, th := range m.Threads() {
		ops += th.Ops
	}
	if ops == 0 {
		t.Fatal("no hash-table operations completed")
	}
}

func TestHashTableWithFlexGuard(t *testing.T) {
	cfg := sim.Small(2)
	cfg.Seed = 7
	m := sim.New(cfg)
	mon := monitor.Attach(m)
	rt := core.NewRuntime(m, mon)
	w := Build(m, Options{
		Threads:  6,
		Buckets:  20,
		Deadline: 10_000_000,
		NewLock:  func(n string) locks.Lock { return rt.NewLock(n) },
	})
	m.Run(15_000_000)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableDefaultBuckets(t *testing.T) {
	cfg := sim.Small(2)
	cfg.Seed = 2
	m := sim.New(cfg)
	w := Build(m, Options{
		Threads:  2,
		Deadline: 1_000_000,
		NewLock:  func(n string) locks.Lock { return locks.NewTATAS(m, n) },
	})
	if len(w.buckets) != 100 {
		t.Fatalf("default bucket count %d, want 100 (one lock each, as in the paper)", len(w.buckets))
	}
	m.Run(2_000_000)
}

// buildCut runs an MCS-locked table whose run horizon falls before the
// workers' deadline, so workers are stopped wherever the horizon finds
// them.
func buildCut(horizon sim.Time) *Workload {
	cfg := sim.Small(4)
	cfg.Seed = 3
	m := sim.New(cfg)
	w := Build(m, Options{
		Threads:  6,
		Buckets:  4,
		Deadline: 10_000_000,
		NewLock:  func(n string) locks.Lock { return locks.NewMCS(m, n) },
	})
	m.Run(horizon)
	return w
}

// tornByCut returns the slot a stopped writer left torn, or -1.
func (w *Workload) tornByCut() int {
	for _, pw := range w.writing {
		if pw.slot < 0 {
			continue
		}
		b := w.buckets[pw.slot/slotsPerBucket]
		s := pw.slot % slotsPerBucket
		if k := b.keys[s].V(); k == pw.key && b.vals[s].V() != k^0xABCD {
			return pw.slot
		}
	}
	return -1
}

// TestValidateToleratesRunCutMidWrite: a horizon that stops a writer
// between its key store and its value store leaves a torn slot with
// mutual exclusion intact, which Validate must accept.
func TestValidateToleratesRunCutMidWrite(t *testing.T) {
	for h := sim.Time(200_000); h < 2_000_000; h += 997 {
		w := buildCut(h)
		if w.tornByCut() < 0 {
			continue
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("horizon %d stopped a writer mid-write: %v", h, err)
		}
		return
	}
	t.Fatal("no horizon stopped a writer between its key and value stores")
}

// noLock provides no mutual exclusion at all.
type noLock struct{}

func (noLock) Lock(*sim.Proc)   {}
func (noLock) Unlock(*sim.Proc) {}

// TestValidateCatchesNoMutualExclusion: with writers interleaving freely
// on one bucket, completed writes tear slots and Validate must say so.
func TestValidateCatchesNoMutualExclusion(t *testing.T) {
	cfg := sim.Small(4)
	cfg.Seed = 5
	m := sim.New(cfg)
	w := Build(m, Options{
		Threads:  8,
		Buckets:  1,
		Deadline: 2_000_000,
		NewLock:  func(string) locks.Lock { return noLock{} },
	})
	m.Run(2_500_000)
	for i, pw := range w.writing {
		if pw.slot >= 0 {
			t.Fatalf("thread %d still mid-write after every worker passed its deadline", i)
		}
	}
	if err := w.Validate(); err == nil {
		t.Fatal("a lock without mutual exclusion passed Validate")
	}
}
