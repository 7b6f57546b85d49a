package main

import (
	"sort"
	"strings"
	"testing"
)

func TestReplaceSection(t *testing.T) {
	src := "intro\n<!-- B -->\nstale\n<!-- E -->\noutro\n"
	got, err := replaceSection(src, section{"<!-- B -->", "<!-- E -->", "fresh\n"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "intro\n<!-- B -->\nfresh\n<!-- E -->\noutro\n"; got != want {
		t.Errorf("replaceSection = %q, want %q", got, want)
	}
	if _, err := replaceSection(src, section{"<!-- E -->", "<!-- B -->", ""}); err == nil {
		t.Error("replaceSection accepted an end marker before its begin marker")
	}
	if _, err := replaceSection(src, section{"<!-- X -->", "<!-- E -->", ""}); err == nil {
		t.Error("replaceSection accepted a missing begin marker")
	}
}

// TestDocsCurrent fails when a generated section of any target's
// document is stale: each doc must equal its rewrite from the live
// code. The service session and the sample campaign run for real, so
// this is also the round-trip proof that every documented exchange,
// journal and report format still holds.
func TestDocsCurrent(t *testing.T) {
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tg := targets[name]
		_, have, want, err := render(tg)
		if err != nil {
			t.Errorf("%s: %v", tg.doc, err)
			continue
		}
		if have != want {
			t.Errorf("%s is stale (first difference at line %d); run `go run ./tools/gendoc %s`",
				tg.doc, firstDiffLine(have, want), name)
		}
	}
}

// firstDiffLine is the 1-based line where a and b first differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}
