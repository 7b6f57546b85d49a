package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"abftchol/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	data := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("command failed: %v", ferr)
	}
	return data
}

// TestGoldenExpAllQuick pins the full `-exp all -quick` output in every
// machine-readable form. The simulator is deterministic and the sweep
// engine reassembles results in declared order, so these bytes must
// never change unless the model itself does — in which case rerun with
// `go test ./cmd/abftchol -run TestGolden -update` and review the diff
// like any other code change.
func TestGoldenExpAllQuick(t *testing.T) {
	cases := []struct {
		name          string
		csv, jsonMode bool
	}{
		{"all-quick.txt", false, false},
		{"all-quick.csv", true, false},
		{"all-quick.json", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := captureStdout(t, func() error {
				// A fresh serial scheduler per format: golden bytes must
				// not depend on memo state left by another format's run
				// (they don't — this keeps each subtest independent).
				return runExperiments("all", c.csv, true, false, c.jsonMode, obsCfg{}, testSched())
			})
			path := filepath.Join("testdata", c.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/abftchol -run TestGolden -update` to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from the golden file (rerun with -update if the change is intended)\n%s",
					c.name, diffHint(want, got))
			}
		})
	}
}

// TestGoldenMatchesParallelAndCache re-renders the text form through a
// wide worker pool and a cold+warm cache and holds both to the same
// golden bytes: the CLI-level differential check.
func TestGoldenMatchesParallelAndCache(t *testing.T) {
	path := filepath.Join("testdata", "all-quick.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/abftchol -run TestGolden -update` to create it)", err)
	}
	parallel := captureStdout(t, func() error {
		return runExperiments("all", false, true, false, false, obsCfg{}, schedWith(8, ""))
	})
	if !bytes.Equal(parallel, want) {
		t.Errorf("-parallel 8 output drifted from the golden file\n%s", diffHint(want, parallel))
	}
	dir := t.TempDir()
	cold := captureStdout(t, func() error {
		return runExperiments("all", false, true, false, false, obsCfg{}, schedWith(4, dir))
	})
	if !bytes.Equal(cold, want) {
		t.Errorf("cold-cache output drifted from the golden file\n%s", diffHint(want, cold))
	}
	warm := captureStdout(t, func() error {
		return runExperiments("all", false, true, false, false, obsCfg{}, schedWith(4, dir))
	})
	if !bytes.Equal(warm, want) {
		t.Errorf("warm-cache output drifted from the golden file\n%s", diffHint(want, warm))
	}
}

// schedWith builds a scheduler with an optional disk cache rooted at
// dir ("" for none).
func schedWith(workers int, dir string) *experiments.Scheduler {
	var cache *experiments.Cache
	if dir != "" {
		cache = experiments.NewCache(dir)
	}
	return experiments.NewScheduler(workers, cache)
}

// diffHint locates the first diverging line for a readable failure.
func diffHint(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first difference at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}
