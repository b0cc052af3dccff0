package harness

import (
	"repro/internal/check"
	"repro/internal/locks"
	"repro/internal/obs/timeseries"
	"repro/internal/sim"
	"repro/internal/workloads/dbindex"
	"repro/internal/workloads/dedup"
	"repro/internal/workloads/hackbench"
	"repro/internal/workloads/hashtable"
	"repro/internal/workloads/kvstore"
	"repro/internal/workloads/raytrace"
	"repro/internal/workloads/sharedmem"
	"repro/internal/workloads/streamcluster"
)

// RunCfg describes one benchmark run: a workload instance on one machine
// with one lock algorithm.
type RunCfg struct {
	Config          sim.Config
	Alg             string
	Threads         int
	Spinners        int // concurrent busy-waiting workload threads
	Duration        sim.Time
	Seed            uint64
	PerLock         bool // monitor per-lock counter ablation
	BlockingMCSExit bool
	// RecordRunnable enables the Figure 5a timeline.
	RecordRunnable bool
	// Observe attaches the lock-event observer (per-lock telemetry in
	// Result; see EnvOptions.Observe).
	Observe bool
	// Trace attaches a small-ring tracer whose streaming digest covers
	// the full event stream (Result.TraceDigest/TraceEvents): the
	// behavioural fingerprint the determinism and golden-trace suites
	// compare across worker counts and scheduler refactors.
	Trace bool
	// Races attaches the race auditor (check.AttachRace); its verdicts
	// land in Result.Races/RaceTotal. Attaching never perturbs the run:
	// digests are byte-identical with and without it.
	Races bool
	// Window, when positive, attaches the flight recorder with this
	// sampling window (ticks); the windowed series land in
	// Result.Series. Like the other observers it never perturbs the
	// run: trace digests are byte-identical with and without it.
	Window sim.Time
}

// runOptions resolves a RunCfg into the env construction options and
// the workload duration.
func runOptions(c RunCfg) (EnvOptions, sim.Time) {
	cfg := c.Config
	cfg.Seed = c.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	cfg.RecordRunnable = c.RecordRunnable
	if need := c.Threads + c.Spinners + 8; cfg.MaxThreads < need {
		cfg.MaxThreads = need
	}
	dur := c.Duration
	if dur == 0 {
		dur = 20_000_000
	}
	return EnvOptions{
		Config:          cfg,
		Alg:             c.Alg,
		PerLock:         c.PerLock,
		BlockingMCSExit: c.BlockingMCSExit,
		Observe:         c.Observe,
	}, dur
}

// prepare builds the env and attaches the optional observers; the
// workload's worker threads must be spawned before spinners so Collect
// can identify them by index.
func prepare(c RunCfg) (*Env, sim.Time, error) {
	o, dur := runOptions(c)
	e, err := NewEnv(o)
	if err != nil {
		return nil, 0, err
	}
	if c.Trace {
		// A tiny ring suffices: the digest is folded per event before
		// eviction, so it is exact over the whole stream.
		e.Tr = e.M.AttachTracer(256)
	}
	if c.Races {
		e.Race = check.AttachRace(e.M, check.RaceOptions{})
	}
	if c.Window > 0 {
		// The run horizon is dur+dur/4 (see finish); size the series
		// preallocation to cover it so steady-state sampling is
		// allocation-free.
		e.TS = timeseries.Attach(e.M, timeseries.Options{
			Window:        c.Window,
			ExpectWindows: int((dur+dur/4)/c.Window) + 1,
		})
	}
	return e, dur, nil
}

// finish runs the machine from t=0 to the horizon dur+dur/4 (the
// workload deadline dur sits at 80% of it, so in-flight operations
// complete) and collects worker metrics.
func finish(e *Env, c RunCfg, dur sim.Time) Result {
	e.SpawnSpinners(c.Spinners, dur)
	q := e.M.Run(dur + dur/4)
	r := e.Collect(c.Threads, dur)
	r.Spinners = c.Spinners
	// Threads still parked when the machine drained are a hang only if
	// the drain happened before the workload deadline: waiters stranded
	// at shutdown (e.g. barrier peers whose partners exited on deadline)
	// are a benign end-of-run artifact.
	if q < dur && e.M.Deadlocked() {
		r.Deadlocked = true
		r.DeadlockDump = e.M.DeadlockReport()
	}
	if e.Tr != nil {
		r.TraceDigest = e.Tr.Digest()
		r.TraceEvents = e.Tr.Seen
	}
	if e.Race != nil {
		r.Races = e.Race.Finish(q)
		r.RaceTotal = e.Race.Total
	}
	if e.TS != nil {
		r.Series = e.TS.Finish(q)
	}
	return r
}

// RunSharedMem runs the shared-memory-access microbenchmark (Figs 1/2/5).
func RunSharedMem(c RunCfg, think sim.Time) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	sharedmem.Build(e.M, sharedmem.Options{
		Threads:    c.Threads,
		Deadline:   dur,
		ThinkTicks: think,
		NewLock:    e.NewLock,
	})
	return finish(e, c, dur), nil
}

// RunSharedMemEnv is RunSharedMem but returns the env for inspection
// (Figure 5a timeline, mode-transition counts).
func RunSharedMemEnv(c RunCfg, think sim.Time) (*Env, Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return nil, Result{}, err
	}
	sharedmem.Build(e.M, sharedmem.Options{
		Threads:    c.Threads,
		Deadline:   dur,
		ThinkTicks: think,
		NewLock:    e.NewLock,
	})
	r := finish(e, c, dur)
	return e, r, nil
}

// RunHashTable runs the hash-table microbenchmark (Figs 3a–d).
func RunHashTable(c RunCfg) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	w := hashtable.Build(e.M, hashtable.Options{
		Threads:  c.Threads,
		Deadline: dur,
		NewLock:  e.NewLock,
	})
	r := finish(e, c, dur)
	if err := w.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// RunDBIndex runs the PiBench-style database index (Figs 3e–h).
func RunDBIndex(c RunCfg) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	w := dbindex.Build(e.M, dbindex.Options{
		Threads:  c.Threads,
		Deadline: dur,
		NewLock:  e.NewLock,
	})
	if e.Crashed() {
		return Result{Alg: c.Alg, Threads: c.Threads, Spinners: c.Spinners, Crashed: true}, nil
	}
	r := finish(e, c, dur)
	if err := w.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// RunDedup runs the Dedup pipeline (Figs 3i–l).
func RunDedup(c RunCfg) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	w := dedup.Build(e.M, dedup.Options{
		Threads:  c.Threads,
		Stripes:  16384,
		Deadline: dur,
		NewLock:  e.NewLock,
	})
	if e.Crashed() {
		return Result{Alg: c.Alg, Threads: c.Threads, Spinners: c.Spinners, Crashed: true}, nil
	}
	r := finish(e, c, dur)
	if err := w.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// RunRaytrace runs the Raytrace workload (Figs 3m–p).
func RunRaytrace(c RunCfg) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	w := raytrace.Build(e.M, raytrace.Options{
		Threads:  c.Threads,
		Deadline: dur,
		NewLock:  e.NewLock,
	})
	r := finish(e, c, dur)
	if err := w.Validate(c.Threads); err != nil {
		return r, err
	}
	return r, nil
}

// RunStreamcluster runs the Streamcluster workload (Figs 3q–t).
func RunStreamcluster(c RunCfg) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	w := streamcluster.Build(e.M, streamcluster.Options{
		Threads:  c.Threads,
		Deadline: dur,
		NewLock:  e.NewLock,
		NewBarrier: func(n string, k int) *locks.Barrier {
			return locks.NewBarrier(e.M, n, k)
		},
	})
	r := finish(e, c, dur)
	if err := w.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// RunKV runs the LevelDB-style store (Fig 4). kind selects
// readrandom/fillrandom.
func RunKV(c RunCfg, kind kvstore.WorkloadKind) (Result, error) {
	e, dur, err := prepare(c)
	if err != nil {
		return Result{}, err
	}
	db := kvstore.Open(e.M, kvstore.DBOptions{NewLock: e.NewLock})
	kvstore.Bench(e.M, db, kvstore.BenchOptions{
		Kind:     kind,
		Threads:  c.Threads,
		Deadline: dur,
	})
	r := finish(e, c, dur)
	if err := db.Validate(); err != nil {
		return r, err
	}
	return r, nil
}

// RunHackbench runs the §5.4 overhead experiment and returns the runtimes
// with the monitor detached and attached.
func RunHackbench(cfg sim.Config, seed uint64, o hackbench.Options) (off, on sim.Time, err error) {
	run := func(withMonitor bool) (sim.Time, error) {
		c := cfg
		c.Seed = seed
		c.Costs.HookCost = monitorHookCost
		alg := "blocking"
		if withMonitor {
			alg = "flexguard" // attaches the monitor; hackbench uses no locks
		}
		e, err := NewEnv(EnvOptions{Config: c, Alg: alg})
		if err != nil {
			return 0, err
		}
		res := hackbench.Run(e.M, o)
		if res.Received != uint64(res.Messages) {
			return 0, errLostMessages
		}
		return res.Runtime, nil
	}
	if off, err = run(false); err != nil {
		return
	}
	on, err = run(true)
	return
}

// errLostMessages reports an incomplete hackbench run.
var errLostMessages = errHackbench("hackbench: messages lost")

type errHackbench string

func (e errHackbench) Error() string { return string(e) }
