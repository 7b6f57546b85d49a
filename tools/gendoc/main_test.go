package main

import "testing"

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
