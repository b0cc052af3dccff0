package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// reportCell runs one small windowed, traced cell for report tests.
func reportCell(t *testing.T, alg string) Result {
	t.Helper()
	c := detCell(alg)
	c.Window = 50_000
	r, err := RunSharedMem(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReportRoundTrip: write → load must reproduce the exact in-memory
// report (flexreport's diff of a report against itself is all-zero
// because of this), and the serialized bytes must be stable across
// writes.
func TestReportRoundTrip(t *testing.T) {
	r := reportCell(t, "flexguard")
	rep := NewReport("roundtrip", sim.Small(4), 11, 50_000)
	rep.Add("cell/flexguard", r)
	rep.AddMetrics("cell/aux", map[string]float64{"ok": 1, "seeds": 3})

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("loaded schema %q, want %q", back.Schema, ReportSchema)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n wrote %+v\n read  %+v", rep, back)
	}

	var a, b bytes.Buffer
	if err := rep.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := back.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("reserializing the loaded report produced different bytes")
	}
}

// TestReportMetrics: the canonical metric set derived from a Result.
func TestReportMetrics(t *testing.T) {
	r := reportCell(t, "flexguard")
	m := Metrics(r)
	for _, key := range []string{
		"ops", "ops_per_sec", "mean_lat_us", "p99_lat_us", "fairness",
		"spin_iters", "preemptions", "cs_preempt", "policy_stob", "policy_btos",
		"resumes",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("Metrics missing %q: %v", key, m)
		}
	}
	if m["ops"] <= 0 || m["ops_per_sec"] <= 0 || m["resumes"] <= 0 {
		t.Errorf("throughput metrics not positive: %v", m)
	}
}

// TestReportRunsSorted: runs serialize sorted by name regardless of Add
// order, so report bytes don't depend on collection order.
func TestReportRunsSorted(t *testing.T) {
	rep := NewToolReport("sorttest", 0)
	rep.AddMetrics("z/last", map[string]float64{"v": 1})
	rep.AddMetrics("a/first", map[string]float64{"v": 2})
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Name != "a/first" || rep.Runs[1].Name != "z/last" {
		t.Fatalf("runs not sorted by name: %q, %q", rep.Runs[0].Name, rep.Runs[1].Name)
	}
}

// TestLoadReportsMerges: pointing the loader at a directory merges
// every *.json report in it (how CI hands flexreport a directory of
// per-tool smoke reports).
func TestLoadReportsMerges(t *testing.T) {
	dir := t.TempDir()
	one := NewToolReport("one", 0)
	one.AddMetrics("a", map[string]float64{"v": 1})
	two := NewToolReport("two", 0)
	two.AddMetrics("b", map[string]float64{"v": 2})
	if err := one.WriteFile(filepath.Join(dir, "one.json")); err != nil {
		t.Fatal(err)
	}
	if err := two.WriteFile(filepath.Join(dir, "two.json")); err != nil {
		t.Fatal(err)
	}
	merged, err := LoadReports(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Runs) != 2 || merged.Runs[0].Name != "a" || merged.Runs[1].Name != "b" {
		t.Fatalf("merged runs = %+v, want a then b", merged.Runs)
	}
}

// TestLoadReportRejectsWrongSchema: a future schema bump must fail
// loudly, not diff garbage.
func TestLoadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"flexguard-report/v0","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Fatal("loading a wrong-schema report did not error")
	}
}

// TestSummaryRoundTrip covers the Summary-line grammar shared by the
// CLIs: render → parse is lossless, FindSummary digs the line out of
// surrounding output, and malformed pairs panic at render time.
func TestSummaryRoundTrip(t *testing.T) {
	line := SummaryLine(
		KV{Key: "tool", Value: "flexbench"},
		KVf("cells", "%d", 42),
		KVf("scale", "%g", 0.25),
	)
	if want := "Summary: tool=flexbench cells=42 scale=0.25"; line != want {
		t.Fatalf("SummaryLine = %q, want %q", line, want)
	}
	kvs, ok := ParseSummary(line)
	if !ok {
		t.Fatalf("ParseSummary rejected %q", line)
	}
	want := map[string]string{"tool": "flexbench", "cells": "42", "scale": "0.25"}
	if !reflect.DeepEqual(kvs, want) {
		t.Fatalf("ParseSummary = %v, want %v", kvs, want)
	}

	output := "table header\nrow 1\n" + line + "\ntrailing note\n"
	found, ok := FindSummary(output)
	if !ok || !reflect.DeepEqual(found, want) {
		t.Fatalf("FindSummary = %v/%v, want %v", found, ok, want)
	}
	if _, ok := FindSummary("no summary here\n"); ok {
		t.Fatal("FindSummary invented a summary")
	}
	if _, ok := ParseSummary("Summary: dangling"); ok {
		t.Fatal("ParseSummary accepted a field with no =")
	}

	for _, bad := range []KV{
		{Key: "", Value: "v"},
		{Key: "two words", Value: "v"},
		{Key: "k=k", Value: "v"},
		{Key: "k", Value: "two words"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SummaryLine(%q=%q) did not panic", bad.Key, bad.Value)
				}
			}()
			SummaryLine(bad)
		}()
	}
}
