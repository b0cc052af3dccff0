// Command perfbench is the repository's benchmark. It runs one workload
// (paper-sweep, fault-campaign or open-loop) for a fixed time, checks
// every cell's outputs, and prints one JSON object as the last line of
// standard output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run. See README.md.
//
//	go build -o perfbench . && ./perfbench -workload paper-sweep -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries the checks and counters of one benchmark invocation.
type run struct {
	w       workload
	seed    uint64
	seconds float64
	outDir  string

	problems  []string // failed correctness checks; any one makes correct false
	attempted int
	failed    int
	raceCells int // cells with race-auditor verdicts
	metrics   map[string]metric
}

func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: "+msg)
	}
	r.problems = append(r.problems, msg)
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// info prints a human-readable line; the JSON result is always last.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: paper-sweep, fault-campaign or open-loop")
		seed    = flag.Uint64("seed", 1, "workload seed; every cell seed derives from it and the cell shape")
		seconds = flag.Float64("seconds", 25, "how long the timed phase runs (whole passes, at least three); a traced run makes one pass of each kind instead")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// Cells run one at a time on this goroutine. With one P the garbage
	// collector's work runs here too, so it is charged to the cells that
	// cause it instead of racing them from a second CPU whose speed
	// depends on the machine's other tenants.
	runtime.GOMAXPROCS(1)
	r := &run{w: w, seed: *seed, seconds: *seconds, outDir: spanDir, metrics: map[string]metric{}}
	if *trace == 1 {
		r.traced()
	} else {
		r.endToEnd()
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problem("metric %s is %v", name, m.Value)
			res.Correct = false
			res.Metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/perfbench-spans"

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// setup generates the inputs and runs the warm-up cells setupReps times
// and returns the median host-corrected time with the generated cells.
func (r *run) setup() (float64, []cell) {
	var times []float64
	var cells []cell
	before := calibrate()
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cells = r.w.cells(r.seed)
		for _, c := range r.w.warmup(r.seed) {
			if o := c.run(); o.fail != "" {
				r.problem("warm-up cell %s failed: %s", c.name, o.fail)
			}
		}
		raw := time.Since(t0).Seconds()
		after := calibrate()
		times = append(times, raw*refNominalMS/((before+after)/2))
		before = after
	}
	return median(times), cells
}

// pass is one run over every cell.
type pass struct {
	outs   []outcome
	ms     []float64 // host-corrected per-cell time
	rawS   float64   // raw wall seconds spent in cells
	refs   []float64 // reference measurements taken during the pass
	factor float64   // mean correction factor of the pass
}

// groupTarget is how much raw cell time runs between two reference
// measurements.
const groupTarget = 200 * time.Millisecond

// runPass runs exec over every cell in order. Cells run in groups of
// about groupTarget; each group's times are rescaled by the mean of the
// reference measured just before and just after it. ref carries the
// last reference across passes.
func runPass(cells []cell, ref *float64, exec func(i int, c cell) outcome) pass {
	p := pass{outs: make([]outcome, len(cells)), ms: make([]float64, len(cells))}
	raw := make([]time.Duration, len(cells))
	start, group := 0, time.Duration(0)
	var factorSum float64
	for i, c := range cells {
		t0 := time.Now()
		p.outs[i] = exec(i, c)
		raw[i] = time.Since(t0)
		group += raw[i]
		if group < groupTarget && i < len(cells)-1 {
			continue
		}
		after := calibrate()
		p.refs = append(p.refs, after)
		f := refNominalMS / ((*ref + after) / 2)
		for j := start; j <= i; j++ {
			p.ms[j] = raw[j].Seconds() * 1e3 * f
			p.rawS += raw[j].Seconds()
			factorSum += f * raw[j].Seconds()
		}
		*ref = after
		start, group = i+1, 0
	}
	p.factor = factorSum / p.rawS
	return p
}

// minPasses is the fewest passes a run makes, so every cell's time is a
// median of at least three.
const minPasses = 3

// maxRunSeconds caps the timed phase so a run ends well inside the
// three-minute limit even with a slow pass.
const maxRunSeconds = 120

// endToEnd is the untraced run: set-up, then whole passes over the
// cells until the time is up, then the end-to-end metrics.
func (r *run) endToEnd() {
	setupS, cells := r.setup()
	// perCell[i] holds cell i's time in every pass; the time quantiles
	// are taken over each cell's median, which keeps a burst of host
	// noise in one pass from moving them.
	perCell := make([][]float64, len(cells))
	var refs []float64
	var firstOuts []outcome
	var firstFG float64
	var totalS, rawS float64
	ref := calibrate()
	start := time.Now()
	passes := 0
	for passes < minPasses || time.Since(start).Seconds() < r.seconds {
		p := runPass(cells, &ref, func(_ int, c cell) outcome { return c.run() })
		fg := r.fgVsBest(cells, p.outs)
		if passes == 0 {
			// Cells are deterministic and every later pass must match
			// this one, so attempted and failed count each cell once:
			// two runs with the same seed report the same counts however
			// many passes fit in their time.
			r.checkPass(cells, p.outs)
			firstOuts, firstFG = p.outs, fg
		} else {
			r.compare("pass 1", "pass "+strconv.Itoa(passes+1), cells, firstOuts, p.outs)
			if fg != firstFG {
				r.problem("fg_vs_best differs between passes: %v vs %v", firstFG, fg)
			}
		}
		for i, ms := range p.ms {
			perCell[i] = append(perCell[i], ms)
			totalS += ms / 1e3
		}
		refs = append(refs, p.refs...)
		rawS += p.rawS
		passes++
		if time.Since(start).Seconds() > maxRunSeconds {
			break
		}
	}
	cellMS := make([]float64, len(cells))
	for i, v := range perCell {
		cellMS[i] = median(v)
	}
	pct := tailPercentile(len(cells))
	r.set("setup_s", setupS, "s")
	r.set("cells_per_s", float64(passes*len(cells))/totalS, "cells/s")
	r.set("cell_ms_p50", median(cellMS), "ms")
	r.set("cell_ms_tail", quantile(cellMS, pct/100), "ms")
	r.set("peak_rss_mb", peakRSSMiB(), "MiB")
	r.set("ok_share", 1-float64(r.failed)/float64(r.attempted), "ratio")
	r.set("fg_vs_best", firstFG, "ratio")
	info("%s seed=%d: %d passes x %d cells in %.1f s wall", r.w.name, r.seed, passes, len(cells), time.Since(start).Seconds())
	info("cell_ms_p50 and cell_ms_tail (p%g, %d cells beyond it) are over the %d cells' medians of %d passes each",
		pct, int(float64(len(cells))*(100-pct)/100+1e-9), len(cells), passes)
	info("%d of %d cells had race-auditor verdicts (reported, not failures, as in faultbench)", r.raceCells, r.attempted)
	info("%d of %d cells failed; reference loop median %.3f ms raw (quartiles %.3f-%.3f) over %d measurements; raw cells/s %.3f", r.failed, r.attempted, median(refs), quantile(refs, 0.25), quantile(refs, 0.75), len(refs), float64(passes*len(cells))/rawS)
}

// checkPass counts failed cells and checks the open-loop fairness rule:
// every algorithm in a row was offered the same requests.
func (r *run) checkPass(cells []cell, outs []outcome) {
	offered := map[string]int64{}
	for i, c := range cells {
		o := outs[i]
		r.attempted++
		if o.fail != "" {
			r.failed++
			if r.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: cell %s failed: %s\n", c.name, o.fail)
			}
		}
		if o.races > 0 {
			r.raceCells++
			if r.raceCells <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: cell %s: %d race-auditor verdicts, first: %s\n", c.name, o.races, o.raceNote)
			}
		}
		if !r.w.open {
			continue
		}
		if want, ok := offered[c.row]; !ok {
			offered[c.row] = o.offered
		} else if want != o.offered {
			r.problem("row %s: %s was offered %d requests, the row's first algorithm %d", c.row, c.alg, o.offered, want)
		}
	}
}

// compare requires two runs of the same cells to agree exactly, in
// their outputs and in their verdicts.
func (r *run) compare(aName, bName string, cells []cell, a, b []outcome) {
	for i, c := range cells {
		if a[i].fp != b[i].fp || a[i].fail != b[i].fail {
			r.problem("cell %s differs between %s and %s:\n  %s\n  %s", c.name, aName, bName, a[i].fp, b[i].fp)
		}
	}
}

// fgVsBest is the geometric mean over rows of FlexGuard's result over
// the best other algorithm's. Closed-loop rows compare operations;
// open-loop rows compare response time at the highest of p99, p95 and
// p50 that has at least ten completions beyond it in every cell of the
// row (best other ÷ FlexGuard, so higher is better for FlexGuard).
func (r *run) fgVsBest(cells []cell, outs []outcome) float64 {
	type rowAcc struct {
		fg   *outcome
		rest []*outcome
	}
	rows := map[string]*rowAcc{}
	var order []string
	for i, c := range cells {
		acc := rows[c.row]
		if acc == nil {
			acc = &rowAcc{}
			rows[c.row] = acc
			order = append(order, c.row)
		}
		switch {
		case c.alg == "flexguard":
			acc.fg = &outs[i]
		case !isFlexGuard(c.alg):
			acc.rest = append(acc.rest, &outs[i])
		}
	}
	var ratios []float64
	for _, name := range order {
		acc := rows[name]
		if acc.fg == nil || len(acc.rest) == 0 {
			continue
		}
		if !r.w.open {
			best := 0.0
			for _, o := range acc.rest {
				best = math.Max(best, o.score)
			}
			if acc.fg.score > 0 && best > 0 {
				ratios = append(ratios, acc.fg.score/best)
			}
			continue
		}
		minDone := acc.fg.done
		for _, o := range acc.rest {
			minDone = min(minDone, o.done)
		}
		k := 2 // p99
		switch {
		case minDone >= 1000:
		case minDone >= 200:
			k = 1
		case minDone >= 20:
			k = 0
		default:
			continue
		}
		best := math.Inf(1)
		for _, o := range acc.rest {
			best = math.Min(best, o.resp[k])
		}
		if acc.fg.resp[k] > 0 {
			ratios = append(ratios, best/acc.fg.resp[k])
		}
	}
	return geomean(ratios)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// writeJSON writes v as indented JSON to dir/name.
func writeJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, b, 0o644)
}
