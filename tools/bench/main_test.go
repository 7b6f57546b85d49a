package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// committed is a baseline as decoded from an indented file, with an
// exact value of each JSON shape the committed files carry: an object
// (the campaign report), a list (the sweep's experiments) and a number
// (a sweep counter).
func committed(t *testing.T) *Report {
	t.Helper()
	var r Report
	err := json.Unmarshal([]byte(`{
  "env": {"go_version": "go1.24.0", "goarch": "amd64", "num_cpu": 2, "gomaxprocs": 2, "blas_workers": 2, "blas_kernel": "avx512"},
  "entries": [
    {"name": "serial", "reps": 5, "median_ms": 10, "min_ms": 9},
    {"name": "parallel", "reps": 5, "median_ms": 100, "min_ms": 90}
  ],
  "exact": {
    "campaign": {"total_trials": 3000, "cells": [{"cell": "laptop/magma/storage-offset", "struck": 103}]},
    "experiments": ["fig10", "table7"],
    "points_executed_warm": 0
  }
}`), &r)
	if err != nil {
		t.Fatal(err)
	}
	return &r
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Report)
		fail string // "" when the gate must pass
	}{
		{"unchanged", func(*Report) {}, ""},
		{"median at 2.9x", func(r *Report) { r.Entries[0].MedianMS = 29 }, ""},
		{"median at 3.1x", func(r *Report) { r.Entries[1].MedianMS = 310 }, "entry parallel: median 310.000 ms is over 3x"},
		{"min is not gated", func(r *Report) { r.Entries[0].MinMS = 1000 }, ""},
		{"faster is fine", func(r *Report) { r.Entries[1].MedianMS = 1 }, ""},
		{"exact values are not gated", func(r *Report) { r.Exact["points_executed_warm"] = json.RawMessage(`3`) }, ""},
		{"entry missing", func(r *Report) { r.Entries = r.Entries[1:] }, "entry serial: committed but not measured"},
		{"entry added", func(r *Report) { r.Entries = append(r.Entries, Entry{Name: "warm", MedianMS: 1}) }, "entry warm: measured but not committed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := committed(t)
			tc.edit(fresh)
			fails := compare(committed(t), fresh)
			switch {
			case tc.fail == "" && len(fails) > 0:
				t.Fatalf("gate failed: %q", fails)
			case tc.fail != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.fail)):
				t.Fatalf("gate reported %q, want one failure containing %q", fails, tc.fail)
			}
		})
	}
}

func TestAddSummarizesSamples(t *testing.T) {
	var r Report
	for _, ms := range []time.Duration{4, 1, 3, 2} {
		r.add("x", ms*time.Millisecond)
	}
	if e := r.entry("x"); e.Reps != 4 || e.MinMS != 1 || e.MedianMS != 2.5 {
		t.Fatalf("entry %+v, want 4 reps, min 1, median 2.5", *e)
	}
	r.add("x", 5*time.Millisecond)
	if e := r.entry("x"); e.Reps != 5 || e.MedianMS != 3 {
		t.Fatalf("entry %+v, want 5 reps, median 3", *e)
	}
}

// exactDiffs lists every exact value that differs between base and
// fresh, compared after json.Compact, each quoted from a little before
// its first differing byte.
func exactDiffs(base, fresh map[string]json.RawMessage) []string {
	var diffs []string
	keys := maps.Clone(base)
	maps.Copy(keys, fresh)
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		b, f := compact(base[k]), compact(fresh[k])
		if b == f {
			continue
		}
		i := 0
		for i < len(b) && i < len(f) && b[i] == f[i] {
			i++
		}
		from, cut := max(0, i-24), ""
		if from > 0 {
			cut = "…"
		}
		diffs = append(diffs, fmt.Sprintf("exact %s: committed %s%.64s, measured %s%.64s", k, cut, b[from:], cut, f[from:]))
	}
	return diffs
}

// compact is raw JSON with insignificant space removed, so an
// indented committed value compares equal to a fresh one; a missing
// value is "absent", an invalid one is kept as it is and so differs.
func compact(raw json.RawMessage) string {
	if raw == nil {
		return "absent"
	}
	var b bytes.Buffer
	if json.Compact(&b, raw) != nil {
		return string(raw)
	}
	return b.String()
}

// untimed runs a bench pass once without timing it.
func untimed(_ string, fn func() error) error { return fn() }

// TestExactValues is the one runner of the benches' exact values. Its
// first cases check the comparison on the committed fixture. Then it
// runs each bench's passes once, untimed (the sweep serial-cold,
// parallel-cold and parallel-warm, requiring byte identity and zero
// warm executions; the campaign serial and parallel, requiring byte
// identity), and requires the exact block of BENCH_blas.json,
// BENCH_sweep.json and BENCH_reliability.json to match, the campaign
// report byte for byte.
func TestExactValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Report)
		fail string // "" when the values must match
	}{
		{"exact values compare compacted", func(r *Report) {
			r.Exact["campaign"] = json.RawMessage(`{"total_trials":3000,"cells":[{"cell":"laptop/magma/storage-offset","struck":103}]}`)
		}, ""},
		{"campaign byte", func(r *Report) {
			r.Exact["campaign"] = json.RawMessage(`{"total_trials":3000,"cells":[{"cell":"laptop/magma/storage-offset","struck":104}]}`)
		}, "exact campaign"},
		{"experiment list", func(r *Report) { r.Exact["experiments"] = json.RawMessage(`["fig10"]`) }, "exact experiments"},
		{"sweep counter", func(r *Report) { r.Exact["points_executed_warm"] = json.RawMessage(`3`) }, "exact points_executed_warm"},
		{"exact value missing", func(r *Report) { delete(r.Exact, "experiments") }, "exact experiments: committed [\"fig10\",\"table7\"], measured absent"},
		{"exact value added", func(r *Report) { r.Exact["n"] = json.RawMessage(`256`) }, "exact n: committed absent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := committed(t)
			tc.edit(fresh)
			diffs := exactDiffs(committed(t).Exact, fresh.Exact)
			switch {
			case tc.fail == "" && len(diffs) > 0:
				t.Fatalf("values differ: %q", diffs)
			case tc.fail != "" && (len(diffs) != 1 || !strings.Contains(diffs[0], tc.fail)):
				t.Fatalf("comparison reported %q, want one difference containing %q", diffs, tc.fail)
			}
		})
	}

	t.Run("blas", func(t *testing.T) {
		r := newReport()
		blasExact(r)
		requireCommitted(t, "blas", r)
	})
	t.Run("sweep", func(t *testing.T) {
		var out string
		warm, err := sweepPasses(t.TempDir(), untimed, &out)
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		sweepExact(r, warm)
		requireCommitted(t, "sweep", r)
	})
	t.Run("reliability", func(t *testing.T) {
		var report []byte
		_, err := campaignPasses(untimed, &report)
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		reliabilityExact(r, report)
		base := requireCommitted(t, "reliability", r)
		// The committed value is the report itself, re-indented to its
		// place in the file.
		var got bytes.Buffer
		if err := json.Indent(&got, base.Exact["campaign"], "", "  "); err != nil {
			t.Fatal(err)
		}
		got.WriteByte('\n')
		if !bytes.Equal(got.Bytes(), report) {
			t.Error("BENCH_reliability.json's campaign value is not byte for byte the campaign report")
		}
	})
}

// requireCommitted fails the test unless fresh's exact values match
// those of the committed BENCH_<name>.json, and returns that file.
func requireCommitted(t *testing.T, name string, fresh *Report) *Report {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if diffs := exactDiffs(base.Exact, fresh.Exact); len(diffs) > 0 {
		t.Errorf("BENCH_%s.json's exact values differ from this tree's (re-record the file only for an intended change):\n  %s",
			name, strings.Join(diffs, "\n  "))
	}
	return &base
}
