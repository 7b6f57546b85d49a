package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abftchol/internal/hetsim"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

// demoTrace drives a small hand-built platform through a fixed kernel
// and transfer schedule. It exists so the golden file depends only on
// hetsim's timing model and the exporter, not on core's scheduling.
func demoTrace() *hetsim.Trace {
	p := hetsim.NewPlatform(hetsim.Laptop())
	tr := p.StartTrace()
	sc := p.GPUStream()
	sv := p.GPUStream()
	scpu := p.CPUStream()

	tr.Mark("iter[0]", 0)
	p.Link.Transfer(sc, hetsim.Event{}, hetsim.HostToDevice, 1<<20)
	p.GPU.Launch(sc, hetsim.Kernel{Name: "gemm[0]", Class: hetsim.ClassGEMM, Flops: 2e9})
	p.GPU.Launch(sv, hetsim.Kernel{Name: "chk-recalc[0,0]", Class: hetsim.ClassChkRecalc, Flops: 1e6, Slots: 1})
	p.GPU.Launch(sv, hetsim.Kernel{Name: "chk-recalc[1,0]", Class: hetsim.ClassChkRecalc, Flops: 1e6, Slots: 1})
	scpu.Wait(sc.Record())
	p.CPU.Launch(scpu, hetsim.Kernel{Name: "potf2[0]", Class: hetsim.ClassPOTF2, Flops: 3e7})
	tr.Mark("iter[1]", scpu.Done())
	p.Link.Transfer(scpu, hetsim.Event{}, hetsim.DeviceToHost, 1<<18)
	p.GPU.Launch(sc, hetsim.Kernel{Name: "trsm[0]", Class: hetsim.ClassTRSM, Flops: 5e8})
	return tr
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	meta := map[string]string{"tool": "abftchol", "run": "demo"}
	if err := WriteChromeTrace(&buf, demoTrace(), meta); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exported trace differs from %s; if the change is intended, regenerate with -update", golden)
	}
	if _, err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	tr := demoTrace()
	if err := WriteChromeTrace(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tr.Spans) + len(tr.Marks); n != want {
		t.Errorf("validator saw %d timeline events, trace holds %d", n, want)
	}

	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", parsed.DisplayTimeUnit)
	}
	procs := map[string]bool{}
	marks := 0
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Args["name"].(string)] = true
		}
		if ev.Ph == "i" {
			marks++
		}
	}
	for _, want := range []string{"run", "gpu", "cpu", "h2d", "d2h"} {
		if !procs[want] {
			t.Errorf("missing process_name metadata for %q", want)
		}
	}
	if marks != len(tr.Marks) {
		t.Errorf("%d instant events, want %d marks", marks, len(tr.Marks))
	}
}

func TestValidateChromeTraceRejectsBadTraces(t *testing.T) {
	for _, tc := range []struct {
		label, body, wantErr string
	}{
		{"negative dur", `{"traceEvents":[{"name":"k","ph":"X","ts":1,"dur":-2,"pid":1,"tid":1}]}`, "dur"},
		{"unmatched E", `{"traceEvents":[{"name":"k","ph":"E","ts":1,"pid":1,"tid":1}]}`, "without matching B"},
		{"unclosed B", `{"traceEvents":[{"name":"k","ph":"B","ts":1,"pid":1,"tid":1}]}`, "unclosed"},
		{"non-monotonic", `{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":0,"tid":0},{"name":"b","ph":"i","ts":1,"pid":0,"tid":0}]}`, "monotonic"},
		{"unknown phase", `{"traceEvents":[{"name":"k","ph":"Q","ts":1,"pid":1,"tid":1}]}`, "phase"},
		{"empty timeline", `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0}]}`, "no timeline"},
		{"not json", `nope`, "not valid"},
	} {
		if _, err := ValidateChromeTrace([]byte(tc.body)); err == nil {
			t.Errorf("%s: validation passed, want error containing %q", tc.label, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.wantErr)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := demoTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := len(tr.Spans) + len(tr.Marks); len(lines) != want {
		t.Fatalf("%d lines, want %d (spans + marks)", len(lines), want)
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
	}
	var first struct {
		Name  string  `json:"name"`
		Class string  `json:"class"`
		Start float64 `json:"start_s"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Name != "xfer" || first.Class != "xfer" {
		t.Errorf("first span = %q/%q, want the h2d transfer", first.Name, first.Class)
	}
}

func TestTraceFormatForPath(t *testing.T) {
	for path, want := range map[string]string{
		"run.jsonl":  "jsonl",
		"run.json":   "chrome",
		"trace":      "chrome",
		"out.JSONL":  "chrome", // extension match is case-sensitive, like Go tooling
		"a/b.jsonl":  "jsonl",
		"fig8.trace": "chrome",
	} {
		if got := TraceFormatForPath(path); got != want {
			t.Errorf("TraceFormatForPath(%q) = %q, want %q", path, got, want)
		}
	}
}
