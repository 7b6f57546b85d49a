package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"abftchol/internal/experiments"
	"abftchol/internal/reliability/campaign"
)

// committed is a baseline as decoded from an indented file, with an
// exact value of each JSON shape: an object (campaign bytes), a list
// and a number (a sweep counter).
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
    "analyzers": ["matindex", "goleak"],
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
		{"exact values compare compacted", func(r *Report) {
			r.Exact["campaign"] = json.RawMessage(`{"total_trials":3000,"cells":[{"cell":"laptop/magma/storage-offset","struck":103}]}`)
		}, ""},
		{"campaign byte", func(r *Report) {
			r.Exact["campaign"] = json.RawMessage(`{"total_trials":3000,"cells":[{"cell":"laptop/magma/storage-offset","struck":104}]}`)
		}, "exact campaign"},
		{"analyzer roster", func(r *Report) { r.Exact["analyzers"] = json.RawMessage(`["matindex"]`) }, "exact analyzers"},
		{"sweep counter", func(r *Report) { r.Exact["points_executed_warm"] = json.RawMessage(`3`) }, "exact points_executed_warm"},
		{"exact value missing", func(r *Report) { delete(r.Exact, "analyzers") }, "exact analyzers: committed [\"matindex\",\"goleak\"], measured absent"},
		{"exact value added", func(r *Report) { r.Exact["n"] = json.RawMessage(`256`) }, "exact n: committed absent"},
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

// TestCommittedCampaignIsTheReport pins BENCH_reliability.json's
// campaign value to the bytes the program produces today: the value is
// exactly rep.Marshal() of the benched campaign, re-indented to its
// place in the file.
func TestCommittedCampaignIsTheReport(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_reliability.json")
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(context.Background(), campaign.Config{Seed: relSeed}, experiments.NewScheduler(0, nil), campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, base.Exact["campaign"], "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("BENCH_reliability.json's campaign value differs from rep.Marshal() of the benched campaign")
	}
}
