package main

// Fixed micro-probes for the layers no workload isolates: the event
// queue, each lock algorithm's per-acquire cost, observer overhead, the
// fuzz checker and the traffic engine. Every probe is timed between two
// reference measurements and reported host-corrected. Probe inputs
// derive from the workload seed, so their counts repeat exactly.

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/vtime"
)

// timed runs fn between two reference measurements and returns its
// host-corrected wall time in milliseconds.
func timed(fn func()) float64 {
	before := calibrate()
	t0 := time.Now()
	fn()
	raw := time.Since(t0).Seconds() * 1e3
	return raw * refNominalMS / ((before + calibrate()) / 2)
}

// medianTimed is the median of reps timed runs of fn.
func medianTimed(reps int, fn func()) float64 {
	var v []float64
	for i := 0; i < reps; i++ {
		v = append(v, timed(fn))
	}
	return median(v)
}

func (r *run) probes(tr *tracer) {
	probe := func(name string, fn func()) {
		tr.cell = -1
		sp := tr.begin(name)
		fn()
		tr.end(sp)
	}
	probe("probe.vtime", r.probeVtime)
	probe("probe.locks", r.probeLocks)
	probe("probe.obs", r.probeObs)
	probe("probe.check", r.probeCheck)
	probe("probe.traffic", r.probeTraffic)
}

// probeVtime times a Schedule/Cancel/Pop mix on a queue held at the
// depth of a paper-sweep cell's event queue.
func (r *run) probeVtime() {
	const (
		depth = 64
		iters = 400_000
	)
	fn := func() {}
	var ops int
	ms := medianTimed(3, func() {
		var q vtime.Queue
		rng := dist.NewRand(cellSeed(r.seed, "vtime"))
		now := vtime.Time(0)
		for i := 0; i < depth; i++ {
			q.Schedule(now+rng.Int63n(10_000), fn)
		}
		ops = 0
		for i := 0; i < iters; i++ {
			q.Schedule(now+1+rng.Int63n(10_000), fn)
			if i%4 == 0 {
				q.Schedule(now+1+rng.Int63n(10_000), fn).Cancel()
				ops += 2
			}
			e := q.Pop()
			now = e.At
			q.Recycle(e)
			ops += 2
		}
	})
	r.set("vtime.op_ns", ms*1e6/float64(ops), "ns")
}

// lockModes are the micro-cell shapes on the 4-CPU small machine.
var lockModes = []struct {
	name    string
	threads int
}{
	{"solo", 1},
	{"contended", 4},
	{"oversub", 8},
}

const lockProbeTicks = sim.Time(2_000_000)

// probeLocks times each §5.1 algorithm in micro-cells built from NewEnv,
// Env.NewLock and Machine.Spawn: threads loop acquire, a two-line
// critical section, release, think.
func (r *run) probeLocks() {
	for _, alg := range harness.Algorithms {
		for _, mode := range lockModes {
			var acquires int64
			ms := medianTimed(3, func() {
				cfg := sim.Small(4)
				cfg.Seed = cellSeed(r.seed, "locks/"+mode.name)
				e, err := harness.NewEnv(harness.EnvOptions{Config: cfg, Alg: alg})
				if err != nil {
					r.problem("lock probe %s: %v", alg, err)
					return
				}
				l := e.NewLock("probe")
				a, b := e.M.NewWord("probe.a", 0), e.M.NewWord("probe.b", 0)
				for i := 0; i < mode.threads; i++ {
					e.M.Spawn("probe", func(p *sim.Proc) {
						for p.Now() < lockProbeTicks {
							l.Lock(p)
							p.Store(a, p.Load(a)+1)
							p.Store(b, p.Load(b)+1)
							l.Unlock(p)
							p.CountOp()
							p.Compute(200)
						}
					})
				}
				e.M.Run(lockProbeTicks * 4)
				var n int64
				for _, th := range e.M.Threads() {
					n += th.Ops
				}
				if got := int64(a.V()); got != n {
					r.problem("lock probe %s/%s: %d acquires but the counter reads %d", alg, mode.name, n, got)
				}
				if acquires != 0 && n != acquires {
					r.problem("lock probe %s/%s: %d acquires, %d in the previous repetition", alg, mode.name, n, acquires)
				}
				acquires = n
			})
			if acquires == 0 {
				r.problem("lock probe %s/%s completed no acquires", alg, mode.name)
				continue
			}
			r.set(fmt.Sprintf("locks.%s.%s_ns", alg, mode.name), ms*1e6/float64(acquires), "ns")
			if mode.name == "contended" {
				r.set(fmt.Sprintf("locks.%s.vticks_per_acquire", alg), float64(lockProbeTicks)*float64(mode.threads)/float64(acquires), "ticks")
			}
		}
	}
}

// probeObs runs one over-subscribed paper-sweep cell with each observer
// off and on.
func (r *run) probeObs() {
	cfg := sweepConfig()
	rc := harness.RunCfg{Config: cfg, Alg: "flexguard", Threads: 2 * cfg.NumCPUs, Duration: sharedmemTicks,
		Seed: cellSeed(r.seed, "obs")}
	runWith := func(mod func(*harness.RunCfg)) float64 {
		c := rc
		mod(&c)
		return medianTimed(3, func() {
			if _, err := harness.RunSharedMem(c, sharedmemThink); err != nil {
				r.problem("observer probe: %v", err)
			}
		})
	}
	off := runWith(func(*harness.RunCfg) {})
	r.set("obs.observe_ratio", runWith(func(c *harness.RunCfg) { c.Observe = true })/off, "ratio")
	r.set("obs.window_ratio", runWith(func(c *harness.RunCfg) { c.Window = 100_000 })/off, "ratio")
	r.set("sim.trace_ratio", runWith(func(c *harness.RunCfg) { c.Trace = true })/off, "ratio")
}

// probeCheck runs a flexguard Fuzz cell per fault plan with the race
// auditor on and off.
func (r *run) probeCheck() {
	var on, off []float64
	var violations int
	for _, np := range fault.Plans() {
		fc := harness.FuzzCfg{Alg: "flexguard", Seed: cellSeed(r.seed, "check/"+np.Name), Plan: np.Plan,
			CPUs: 2, Threads: 5, Horizon: 2_000_000}
		for _, races := range []bool{true, false} {
			fc.Races = races
			ms := timed(func() {
				res, err := harness.Fuzz(fc)
				if err != nil {
					r.problem("check probe %s: %v", np.Name, err)
					return
				}
				violations += len(res.Violations) + len(res.Races)
			})
			if races {
				on = append(on, ms)
			} else {
				off = append(off, ms)
			}
		}
	}
	r.set("check.fuzz_ms", median(on), "ms")
	r.set("check.races_ratio", sumMS(on)/sumMS(off), "ratio")
	r.set("check.violations", float64(violations), "count")
	if violations > 0 {
		r.problem("check probe: %d violations", violations)
	}
}

// probeTraffic runs one saturated open-loop flexguard cell per arrival
// pattern.
func (r *run) probeTraffic() {
	var ms []float64
	var sum [4]int64
	pats := traffic.Patterns()
	for _, p := range pats {
		oc := harness.OpenLoopCfg{Config: openConfig(), Alg: "flexguard", Pattern: p, RateMs: openRates[len(openRates)-1],
			Duration: openTicks, Seed: cellSeed(r.seed, "traffic/"+p)}
		ms = append(ms, timed(func() {
			res, err := harness.RunOpenLoop(oc)
			if err != nil {
				r.problem("traffic probe %s: %v", p, err)
				return
			}
			sum[0] += res.Completed
			sum[1] += res.Dropped
			sum[2] += res.PeakWorkers
			sum[3] += res.SpawnedWorkers
		}))
	}
	n := float64(len(pats))
	r.set("traffic.run_ms", median(ms), "ms")
	r.set("traffic.completed", float64(sum[0])/n, "count")
	r.set("traffic.dropped", float64(sum[1])/n, "count")
	r.set("traffic.peak_workers", float64(sum[2])/n, "count")
	r.set("traffic.spawned_workers", float64(sum[3])/n, "count")
}
