package server

import (
	"os"
	"strings"
	"testing"
)

// TestServiceDocCurrent pins docs/SERVICE.md to the live server: the
// endpoint table, the error table, and the captured session must be
// exactly what tools/gendoc would regenerate. Because DocSession
// drives the real handlers, this test is also the round-trip proof
// that every documented exchange still works — a handler change that
// alters any shown byte fails here until
// `go generate ./internal/server` is re-run.
func TestServiceDocCurrent(t *testing.T) {
	data, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatalf("docs/SERVICE.md: %v (the service doc ships with the daemon)", err)
	}
	doc := string(data)
	session, err := DocSession()
	if err != nil {
		t.Fatalf("record session: %v", err)
	}
	for _, sec := range []struct {
		name, begin, end, body string
	}{
		{"endpoint table", EndpointsBegin, EndpointsEnd, EndpointsTable()},
		{"error table", ErrorsBegin, ErrorsEnd, ErrorsTable()},
		{"job error code table", JobErrorsBegin, JobErrorsEnd, JobErrorsTable()},
		{"session", SessionBegin, SessionEnd, session},
	} {
		want := sec.begin + "\n" + sec.body + sec.end
		if !strings.Contains(doc, want) {
			i := strings.Index(doc, sec.begin)
			j := strings.Index(doc, sec.end)
			got := "(markers missing)"
			if i >= 0 && j > i {
				got = doc[i : j+len(sec.end)]
			}
			t.Errorf("docs/SERVICE.md %s is stale; run `go generate ./internal/server`\n--- want ---\n%s\n--- have ---\n%s", sec.name, want, got)
		}
	}
}

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
