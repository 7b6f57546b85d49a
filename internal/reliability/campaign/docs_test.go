package campaign

import (
	"os"
	"strings"
	"testing"
)

// TestReliabilityDocCurrent pins docs/RELIABILITY.md to the live
// code: the fault-class table, the outcome table, and the sample
// campaign must be exactly what tools/gendoc would regenerate.
// Because DocSample executes a real campaign, this test is also the
// round-trip proof that the documented journal and report formats
// still hold — a change that alters any shown byte fails here until
// `go generate ./internal/reliability/campaign` is re-run.
func TestReliabilityDocCurrent(t *testing.T) {
	data, err := os.ReadFile("../../../docs/RELIABILITY.md")
	if err != nil {
		t.Fatalf("docs/RELIABILITY.md: %v (the reliability doc ships with the campaign engine)", err)
	}
	doc := string(data)
	sample, err := DocSample()
	if err != nil {
		t.Fatalf("record sample campaign: %v", err)
	}
	for _, sec := range []struct {
		name, begin, end, body string
	}{
		{"fault-class table", ClassesBegin, ClassesEnd, ClassesTable()},
		{"outcome table", OutcomesBegin, OutcomesEnd, OutcomesTable()},
		{"sample campaign", SampleBegin, SampleEnd, sample},
	} {
		want := sec.begin + "\n" + sec.body + sec.end
		if !strings.Contains(doc, want) {
			i := strings.Index(doc, sec.begin)
			j := strings.Index(doc, sec.end)
			got := "(markers missing)"
			if i >= 0 && j > i {
				got = doc[i : j+len(sec.end)]
			}
			t.Errorf("docs/RELIABILITY.md %s is stale; run `go generate ./internal/reliability/campaign`\n--- want ---\n%s\n--- have ---\n%s", sec.name, want, got)
		}
	}
}

// TestDocSampleDeterministic guards the property the embedded sample
// relies on: two recordings are byte-identical.
func TestDocSampleDeterministic(t *testing.T) {
	a, err := DocSample()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DocSample()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("DocSample is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
