package main

// The traced run: the same cells decomposed into the layers' public
// functions with a span around each call, deterministic work counts
// from runs with the tracer and lock observer attached, and fixed
// micro-probes of the layers no workload isolates. Spans stay in memory
// and are written once, at the end.

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// span is one timed call. Times are raw nanoseconds since the tracer
// started; Parent is -1 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	cell  int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cell: t.cell, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus the time its child spans cover
	durs    []float64
}

// selfTimes aggregates spans by name. Children of one span run one
// after another, so a span's self time is its duration minus the sum of
// its children's.
func selfTimes(spans []span) []*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	var out []*layerTime
	for i, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
			out = append(out, lt)
		}
		d := float64(s.End-s.Start) / 1e6
		lt.Count++
		lt.TotalMS += d
		lt.SelfMS += d - float64(child[i])/1e6
		lt.durs = append(lt.durs, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// traced runs the workload's cells three ways (untraced reference,
// traced, and twice with counting observers), then the layer probes,
// and sets the per-layer metrics.
func (r *run) traced() {
	_, cells := r.setup()
	ref := calibrate()

	// Untraced reference pass: the harness entry points, as endToEnd
	// runs them.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall0 := time.Now()
	p0 := runPass(cells, &ref, func(_ int, c cell) outcome { return c.run() })
	wallS := time.Since(wall0).Seconds()
	runtime.ReadMemStats(&ms1)
	r.checkPass(cells, p0.outs)

	// Traced pass: each layer's public functions, one span per call.
	tr := newTracer()
	p1 := runPass(cells, &ref, func(i int, c cell) outcome {
		tr.cell = i
		sp := tr.begin("cell")
		o := c.traced(tr, false)
		tr.end(sp)
		return o
	})
	r.compare("the harness entry points", "the traced decomposition", cells, p0.outs, p1.outs)

	// Counting passes: tracer and lock observer attached, twice.
	count := func() []outcome {
		outs := make([]outcome, len(cells))
		for i, c := range cells {
			outs[i] = c.traced(nil, true)
		}
		return outs
	}
	c1, c2 := count(), count()
	r.compare("the reference pass", "the counting pass", cells, p0.outs, c1)
	for i, c := range cells {
		if c1[i].counts != c2[i].counts {
			r.problem("cell %s: layer counts differ between two counting runs:\n  %v\n  %v", c.name, c1[i].counts, c2[i].counts)
		}
	}

	n := float64(len(cells))
	f := p1.factor // span times are corrected by the traced pass's reference
	lt := map[string]*layerTime{}
	for _, l := range selfTimes(tr.spans) {
		lt[l.Name] = l
	}
	medianOf := func(names ...string) float64 {
		var d []float64
		for _, name := range names {
			if l := lt[name]; l != nil {
				d = append(d, l.durs...)
			}
		}
		return median(d) * f
	}
	allRefs := append(append([]float64(nil), p0.refs...), p1.refs...)
	r.set("host.ref_ms", median(allRefs), "ms")
	r.set("host.wall_s", wallS, "s")
	r.set("host.alloc_kb_per_cell", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/n, "KiB")
	r.set("harness.env_us", medianOf("harness.NewEnv")*1e3, "us")
	r.set("harness.collect_us", medianOf("harness.Env.Collect", "check.Finish", "traffic.Engine.Stats")*1e3, "us")
	r.set("harness.cell_ms", medianOf("cell"), "ms")
	r.set("workloads.build_us", medianOf("workloads.Build")*1e3, "us")
	r.set("sim.run_ms", medianOf("sim.Machine.Run"), "ms")

	var runMS float64
	if l := lt["sim.Machine.Run"]; l != nil {
		runMS = l.TotalMS * f
	}
	var sum layerCounts
	var vticks int64
	for i := range cells {
		a := c1[i].counts
		vticks += p1.outs[i].vticks
		sum.events += a.events
		sum.switches += a.switches
		sum.preemptions += a.preemptions
		sum.steals += a.steals
		sum.migrations += a.migrations
		sum.spinIters += a.spinIters
		sum.blocks += a.blocks
		sum.wakes += a.wakes
		sum.handovers += a.handovers
		sum.csPreempt += a.csPreempt
		sum.policySwitches += a.policySwitches
	}
	r.set("sim.ns_per_event", runMS*1e6/float64(sum.events), "ns")
	r.set("sim.vticks_per_s", float64(vticks)/(runMS/1e3), "ticks/s")
	perCell := func(name string, v int64) { r.set(name, float64(v)/n, "count") }
	perCell("sim.events", sum.events)
	perCell("sim.switches", sum.switches)
	perCell("sim.preemptions", sum.preemptions)
	perCell("sim.steals", sum.steals)
	perCell("sim.migrations", sum.migrations)
	perCell("locks.spin_iters", sum.spinIters)
	perCell("locks.blocks", sum.blocks)
	perCell("locks.wakes", sum.wakes)
	perCell("locks.handovers", sum.handovers)
	perCell("monitor.cs_preempt", sum.csPreempt)
	perCell("core.policy_switches", sum.policySwitches)

	untraced := n / (sumMS(p0.ms) / 1e3)
	tracedRate := n / (sumMS(p1.ms) / 1e3)
	r.set("trace.overhead_ratio", untraced/tracedRate, "ratio")

	r.probes(tr)

	path, err := writeJSON(r.outDir, fmt.Sprintf("spans-%s-%d.json", r.w.name, r.seed), map[string]any{
		"workload": r.w.name, "seed": r.seed, "correction": f, "spans": tr.spans, "layers": selfTimes(tr.spans),
	})
	if err != nil {
		r.problem("writing spans: %v", err)
	}
	info("%s seed=%d traced run: %d cells, %d spans written to %s", r.w.name, r.seed, len(cells), len(tr.spans), path)
	info("tracing overhead: untraced %.2f cells/s, traced %.2f cells/s (x%.3f)", untraced, tracedRate, untraced/tracedRate)
	info("%-28s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, l := range selfTimes(tr.spans) {
		info("%-28s %8d %12.1f %12.1f", l.Name, l.Count, l.TotalMS*f, l.SelfMS*f)
	}
}

func sumMS(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
