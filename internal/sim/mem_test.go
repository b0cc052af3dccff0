package sim

import "testing"

// memRec is a MemObserver capturing the stream for assertions.
type memRec struct {
	evs []MemEvent
}

func (r *memRec) MemEvent(ev *MemEvent) { r.evs = append(r.evs, *ev) }

func (r *memRec) count(k MemKind) int {
	n := 0
	for _, e := range r.evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// memScenario runs a small contended futex scenario; rec may be nil.
func memScenario(rec *memRec) *Tracer {
	m := small(2)
	tr := m.AttachTracer(1 << 14)
	if rec != nil {
		m.SetMemObserver(rec)
	}
	w := m.NewWord("w", 1)
	flag := m.NewWord("flag", 0)
	m.Spawn("blocker", func(p *Proc) {
		p.FutexWait(w, 1)
		p.Add(flag, 1)
	})
	m.Spawn("spinner", func(p *Proc) {
		p.SpinOn(func() bool { return flag.V() == 0 }, flag)
		p.Load(flag)
	})
	m.Spawn("waker", func(p *Proc) {
		p.Compute(20_000)
		if p.CAS(w, 1, 0) != 1 {
			panic("lost CAS")
		}
		p.FutexWake(w, 1)
	})
	m.Run(1_000_000)
	return tr
}

func TestMemObserverStream(t *testing.T) {
	rec := &memRec{}
	memScenario(rec)
	if rec.count(MemLoad) < 2 { // futex value check + explicit load
		t.Fatalf("loads: %d, want >= 2", rec.count(MemLoad))
	}
	if rec.count(MemRMW) < 2 { // CAS + Add
		t.Fatalf("rmws: %d, want >= 2", rec.count(MemRMW))
	}
	if rec.count(MemFutexWake) != 1 {
		t.Fatalf("futex wakes: %d, want 1", rec.count(MemFutexWake))
	}
	if rec.count(MemSpinStart) == 0 || rec.count(MemSpinExit) == 0 {
		t.Fatalf("spin events missing: start=%d exit=%d",
			rec.count(MemSpinStart), rec.count(MemSpinExit))
	}
	var sawCAS bool
	for _, e := range rec.evs {
		if e.Kind == MemRMW && e.W != nil && e.W.Name() == "w" && e.Wrote && e.Old == 1 && e.New == 0 {
			sawCAS = true
		}
		if e.Kind != MemSpinStart && e.Kind != MemSpinExit && e.W == nil {
			t.Fatalf("non-spin event without a word: %+v", e)
		}
	}
	if !sawCAS {
		t.Fatal("the winning CAS (1 -> 0) was not observed")
	}
}

// TestMemObserverPreservesDigest: attaching the observer must not
// perturb the simulation — the trace digest is byte-identical with and
// without one.
func TestMemObserverPreservesDigest(t *testing.T) {
	base := memScenario(nil)
	obs := memScenario(&memRec{})
	if base.Digest() != obs.Digest() || base.Seen != obs.Seen {
		t.Fatalf("observer perturbed the run: digest %#x/%d events vs %#x/%d",
			base.Digest(), base.Seen, obs.Digest(), obs.Seen)
	}
}

// TestWordIDsDense: words get dense per-machine IDs in allocation order.
func TestWordIDsDense(t *testing.T) {
	m := small(1)
	a := m.NewWord("a", 0)
	bs := m.NewWords("b", 3)
	c := m.NewWord("c", 0)
	want := int32(0)
	for _, w := range []*Word{a, bs[0], bs[1], bs[2], c} {
		if w.ID() != want {
			t.Fatalf("%s: id %d, want %d", w.Name(), w.ID(), want)
		}
		want++
	}
}
