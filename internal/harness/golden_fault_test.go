package harness

// Fault-injected golden fixtures: the counterpart of TestGoldenTraces
// for the fault path. Every fault.Plans() preset that perturbs the
// simulator and every fault.CrashPlans() preset runs against every
// algorithm on the golden cell, with the invariant checker and the race
// auditor attached and emitting their verdicts into the trace, as Fuzz
// runs them. Each entry pins the trace digest (which folds in the
// TraceViolation and TraceCrash events), the event count, the checker's
// verdicts, the race total and the crash count. A change to the boundary
// seams, the fast path under injection or the observers cannot land
// silently. Regenerate with
//
//	go test ./internal/harness -run TestGoldenFaultTraces -update

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workloads/sharedmem"
)

const goldenFaultPath = "testdata/golden_fault_traces.json"

// goldenFaultScenario names the run behind every entry.
const goldenFaultScenario = goldenScenario + " +checker +races plan-seed=11"

// goldenFaultEntry is one (plan, algorithm) fingerprint.
type goldenFaultEntry struct {
	Digest     string   `json:"digest"`
	Events     int64    `json:"events"`
	Violations []string `json:"violations"`
	RaceTotal  int64    `json:"race_total"`
	Crashes    int64    `json:"crashes"`
}

type goldenFaultFile struct {
	Scenario string                      `json:"scenario"`
	Entries  map[string]goldenFaultEntry `json:"entries"`
}

// goldenFaultPlans returns the presets the fixture covers: the
// sim-perturbing campaign presets plus every crash preset.
func goldenFaultPlans() []fault.NamedPlan {
	var out []fault.NamedPlan
	for _, np := range fault.Plans() {
		if np.Plan.PerturbsSim() {
			out = append(out, np)
		}
	}
	return append(out, fault.CrashPlans()...)
}

// runGoldenFault runs the golden cell for alg under plan with the
// checker, race auditor and fault injector attached.
func runGoldenFault(alg string, plan fault.Plan) (goldenFaultEntry, error) {
	c := goldenCell(alg)
	o, dur := runOptions(c)
	e, err := NewEnv(o)
	if err != nil {
		return goldenFaultEntry{}, err
	}
	tr := e.M.AttachTracer(256)
	co := check.Options{Registry: obs.NewRegistry(), EmitEvents: true}
	ck := check.Attach(e.M, co)
	ra := check.AttachRace(e.M, check.RaceOptions{Registry: co.Registry, EmitEvents: true})
	inj := fault.Apply(e.M, e.Mon, plan, c.Seed)
	sharedmem.Build(e.M, sharedmem.Options{
		Threads:    c.Threads,
		Deadline:   dur,
		ThinkTicks: 100,
		NewLock:    e.NewLock,
	})
	q := e.M.Run(dur + dur/4)
	out := goldenFaultEntry{Violations: []string{}}
	for _, v := range ck.Finish(q) {
		out.Violations = append(out.Violations, v.String())
	}
	ra.Finish(q)
	out.RaceTotal = ra.Total
	if inj != nil {
		out.Crashes = inj.Crashes
	}
	out.Digest = fmt.Sprintf("0x%016x", tr.Digest())
	out.Events = tr.Seen
	return out, nil
}

func TestGoldenFaultTraces(t *testing.T) {
	plans := goldenFaultPlans()
	algs := AllAlgorithms
	n := len(plans) * len(algs)
	res, errs := ParallelMap(0, n, func(i int) (goldenFaultEntry, error) {
		return runGoldenFault(algs[i%len(algs)], plans[i/len(algs)].Plan)
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	got := goldenFaultFile{Scenario: goldenFaultScenario, Entries: map[string]goldenFaultEntry{}}
	for i := range res {
		got.Entries[plans[i/len(algs)].Name+"/"+algs[i%len(algs)]] = res[i]
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFaultPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFaultPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenFaultPath, len(got.Entries))
		return
	}

	raw, err := os.ReadFile(goldenFaultPath)
	if err != nil {
		t.Fatalf("missing fault golden fixtures (run with -update to generate): %v", err)
	}
	var want goldenFaultFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt fault golden fixtures: %v", err)
	}
	if want.Scenario != got.Scenario {
		t.Fatalf("fault golden scenario drifted: fixtures for %q, test runs %q (regenerate with -update)",
			want.Scenario, got.Scenario)
	}
	for key, g := range got.Entries {
		w, ok := want.Entries[key]
		if !ok {
			t.Errorf("%s: no committed entry (regenerate with -update)", key)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s: fault-injected run changed:\n  got  %s\n  want %s\n"+
				"  if the semantic change is intended, regenerate with -update", key, gj, wj)
		}
	}
	for key := range want.Entries {
		if _, ok := got.Entries[key]; !ok {
			t.Errorf("stale fault golden entry %q", key)
		}
	}
	if string(raw) != string(data) {
		t.Errorf("%s is not byte-identical to the regenerated fixture", goldenFaultPath)
	}
}
