package sim

import "testing"

// nopInjector arms every fault seam, the crash seams included, and never
// fires any of them.
type nopInjector struct{}

func (nopInjector) SliceGrant(t *Thread, s Time) Time  { return s }
func (nopInjector) PreemptAtBoundary(t *Thread) bool   { return false }
func (nopInjector) WakeDelay(t *Thread, lat Time) Time { return lat }
func (nopInjector) SpuriousWakeDelay(t *Thread) Time   { return 0 }
func (nopInjector) CrashAtBoundary(t *Thread) bool     { return false }
func (nopInjector) CrashParkedDelay(t *Thread) Time    { return 0 }
func (nopInjector) CrashParkedOutcome(*Thread, bool)   {}

// TestInjectorKeepsInlineFastPath asserts that attaching a fault
// injector whose seams never fire leaves a run unchanged: the same event
// stream, the same coroutine resumes and the same work. Instruction
// boundaries run on the thread side under an injector just as they do
// without one, so the injector costs no extra machine round trips.
func TestInjectorKeepsInlineFastPath(t *testing.T) {
	type outcome struct {
		digest        uint64
		events        int64
		resumes, ops  int64
		switches, pre int64
		issued, value int64
	}
	run := func(fi FaultInjector) outcome {
		m := New(benchCfg(4))
		if fi != nil {
			m.SetFaultInjector(fi)
		}
		tr := m.AttachTracer(256)
		l := newBenchMixed(m)
		priv := m.NewWord("priv", 0)
		const horizon = 2_000_000
		var issued int64
		for i := 0; i < 8; i++ {
			m.Spawn("w", func(p *Proc) {
				for p.Now() < horizon {
					l.lock(p)
					p.IncCS()
					v := p.Load(priv)
					p.Store(priv, v+1)
					p.Compute(250)
					p.DecCS()
					l.unlock(p)
					p.Compute(150)
					p.CountOp()
					issued += 6
				}
			})
		}
		m.Run(horizon)
		var ops int64
		for _, th := range m.Threads() {
			ops += th.Ops
		}
		return outcome{tr.Digest(), tr.Seen, m.TotalResumes, ops, m.TotalSwitches, m.TotalPreemptions, issued, int64(priv.V())}
	}
	base := run(nil)
	got := run(nopInjector{})
	if got != base {
		t.Fatalf("no-op injector changed the run:\n got  %+v\n want %+v", got, base)
	}
	if base.resumes == 0 || base.issued == 0 {
		t.Fatalf("degenerate run: %+v", base)
	}
}
