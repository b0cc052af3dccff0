package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames requires the printed metrics to be exactly the declared
// ones, with the declared units and well-formed names.
func checkNames(t *testing.T, got map[string]metric, want []declaredMetric) {
	t.Helper()
	wantUnits := map[string]string{}
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("declared metric name %q is malformed", m.Name)
		}
		wantUnits[m.Name] = m.Unit
	}
	var extra []string
	for name, m := range got {
		if !metricName.MatchString(name) {
			t.Errorf("printed metric name %q is malformed", name)
		}
		unit, ok := wantUnits[name]
		if !ok {
			extra = append(extra, name)
			continue
		}
		if unit != m.Unit {
			t.Errorf("metric %s printed in %q, declared in %q", name, m.Unit, unit)
		}
		delete(wantUnits, name)
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("printed but not declared: %v", extra)
	}
	if len(wantUnits) > 0 {
		t.Errorf("declared but not printed: %v", wantUnits)
	}
}

func TestDeclaredWorkloadsExist(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestShortRuns runs every workload for its minimum of three passes and
// requires the declared end-to-end metrics, no failed cell and no
// failed correctness check.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for three passes")
	}
	d := readDeclared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &run{w: w, seed: 3, metrics: map[string]metric{}}
			r.endToEnd()
			checkNames(t, r.metrics, d.EndToEnd)
			if len(r.problems) > 0 {
				t.Errorf("correctness checks failed: %v", r.problems)
			}
			if r.failed != 0 || r.metrics["ok_share"].Value != 1 {
				t.Errorf("%d of %d cells failed", r.failed, r.attempted)
			}
			for name, m := range r.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks the traced run prints exactly the declared
// per-layer metrics and writes its span file.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the open-loop workload traced")
	}
	d := readDeclared(t)
	w, _ := findWorkload("open-loop")
	dir := t.TempDir()
	r := &run{w: w, seed: 3, metrics: map[string]metric{}, outDir: dir}
	r.traced()
	checkNames(t, r.metrics, d.PerLayer)
	if len(r.problems) > 0 {
		t.Errorf("correctness checks failed: %v", r.problems)
	}
	if _, err := os.Stat(dir + "/spans-open-loop-3.json"); err != nil {
		t.Error(err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "run", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "build", Start: 50, End: 70},
	}
	got := map[string]float64{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l.SelfMS * 1e6
	}
	want := map[string]float64{"cell": 40, "run": 40, "build": 20}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("self time of %s = %v ns, want %v", k, got[k], v)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {100, 90}, {280, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestRowsShareSeeds checks the fairness rule: every algorithm in a row
// runs on the row's seed, and rows get distinct seeds.
func TestRowsShareSeeds(t *testing.T) {
	for _, w := range workloads {
		rowSeed := map[string]uint64{}
		rowOf := map[uint64]string{}
		for _, c := range w.cells(7) {
			if s, ok := rowSeed[c.row]; ok && s != c.seed {
				t.Errorf("%s: %s has seed %d, its row %d", w.name, c.name, c.seed, s)
			}
			if r, ok := rowOf[c.seed]; ok && r != c.row {
				t.Errorf("%s: rows %s and %s share seed %d", w.name, r, c.row, c.seed)
			}
			rowSeed[c.row], rowOf[c.seed] = c.seed, c.row
		}
	}
}
