package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryRejectsUnknownNames(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []struct {
		label string
		call  func()
	}{
		{"Inc", func() { r.Inc("no.such.counter") }},
		{"AddValue", func() { r.AddValue("no.such.value", 1) }},
		{"Observe", func() { r.Observe("no.such.histogram", 1) }},
		// Right name, wrong kind: a histogram is not a counter.
		{"Inc on histogram", func() { r.Inc("verify.batch_blocks") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on unregistered metric", fn.label)
				}
			}()
			fn.call()
		}()
	}
}

func TestRegistryCoversCatalog(t *testing.T) {
	r := NewRegistry()
	if got, want := len(r.Names()), len(Catalog); got != want {
		t.Fatalf("registry has %d names, catalog %d", got, want)
	}
	// Every catalog entry accepts a write of its kind without panic.
	for _, def := range Catalog {
		switch def.Kind {
		case Counter:
			r.Inc(def.Name)
		case Value:
			r.AddValue(def.Name, 1.5)
		case HistogramKind:
			r.Observe(def.Name, 3)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	fill := func(r *Registry) {
		r.Add("kernel.launches.gemm", 7)
		r.Inc("run.count")
		r.AddValue("time.sim_seconds", 1.25)
		r.AddValue("device.busy_seconds.gpu", 0.5)
		for _, v := range []float64{0, 1, 3, 1024, 1e13} {
			r.Observe("xfer.bytes", v)
		}
	}
	a, b := NewRegistry(), NewRegistry()
	fill(a)
	fill(b)
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("identical registries produced different snapshots:\n%s\n----\n%s", sa, sb)
	}
	if !bytes.HasSuffix(sa, []byte("\n")) {
		t.Error("snapshot should end with a newline")
	}
	var parsed struct {
		Counters   map[string]int64   `json:"counters"`
		Values     map[string]float64 `json:"values"`
		Histograms map[string]struct {
			Count    int64 `json:"count"`
			Overflow int64 `json:"overflow"`
			Buckets  []struct {
				Le float64 `json:"le"`
				N  int64   `json:"n"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(sa, &parsed); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if parsed.Counters["kernel.launches.gemm"] != 7 {
		t.Errorf("kernel.launches.gemm = %d, want 7", parsed.Counters["kernel.launches.gemm"])
	}
	h := parsed.Histograms["xfer.bytes"]
	if h.Count != 5 {
		t.Errorf("xfer.bytes count = %d, want 5", h.Count)
	}
	if h.Overflow != 1 {
		t.Errorf("xfer.bytes overflow = %d, want 1 (1e13 > 2^40)", h.Overflow)
	}
}

func TestHistogramCount(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 9; i++ {
		r.Observe("verify.batch_blocks", float64(i))
	}
	if got := r.HistogramCount("verify.batch_blocks"); got != 9 {
		t.Fatalf("HistogramCount = %d, want 9", got)
	}
}

func TestCatalogTableListsEveryMetric(t *testing.T) {
	table := CatalogTable()
	for _, def := range Catalog {
		if !strings.Contains(table, "`"+def.Name+"`") {
			t.Errorf("catalog table is missing %s", def.Name)
		}
	}
}

func TestMergeAddsEveryMetric(t *testing.T) {
	src := NewRegistry()
	src.Add("kernel.launches.gemm", 3)
	src.AddValue("time.sim_seconds", 0.25)
	src.Observe("xfer.bytes", 4096)
	dst := NewRegistry()
	dst.Merge(src)
	dst.Merge(src)
	src.Inc("kernel.launches.gemm") // a later write to src must not reach dst
	if got := dst.Counter("kernel.launches.gemm"); got != 6 {
		t.Errorf("merged counter %d, want 6", got)
	}
	if got := dst.Value("time.sim_seconds"); got != 0.5 {
		t.Errorf("merged value %v, want 0.5", got)
	}
	if got := dst.HistogramCount("xfer.bytes"); got != 2 {
		t.Errorf("merged histogram count %d, want 2", got)
	}
}

// TestCrossMergeCompletes runs a.Merge(b) and b.Merge(a) concurrently.
// A Merge that held both registries' locks at once could deadlock
// here, each goroutine holding its destination and waiting for the
// other's.
func TestCrossMergeCompletes(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Inc("run.count")
	b.Inc("run.count")
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		for _, pair := range [][2]*Registry{{a, b}, {b, a}} {
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					pair[0].Merge(pair[1])
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent a.Merge(b) and b.Merge(a) did not finish within 30 s")
	}
}
