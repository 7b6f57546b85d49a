package server

import "testing"

// TestDocSessionDeterministic guards the property the embedded session
// relies on: two recordings are byte-identical.
func TestDocSessionDeterministic(t *testing.T) {
	a, err := DocSession()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DocSession()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("DocSession is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
