package campaign

import "testing"

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
