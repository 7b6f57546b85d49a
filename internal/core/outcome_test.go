package core

import (
	"strings"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
)

// TestRunSetsFailureClass: each way a single-attempt run can fail sets
// exactly its class in Result.Failure, with the error text the class
// has always carried, and a clean run sets none. The fault cases are
// the ones reliability's TestClassifyAgainstCore files by class.
func TestRunSetsFailureClass(t *testing.T) {
	model := func(scheme Scheme, scns ...fault.Scenario) Options {
		return Options{
			N: 256, BlockSize: 32, K: 2, Scheme: scheme, Profile: hetsim.Laptop(),
			MaxAttempts: 1, ConcurrentRecalc: true, Scenarios: scns,
		}
	}
	storage := fault.Scenario{Kind: fault.Storage, Iter: 4, BI: 5, BJ: 2, Row: 3, Col: 7, Delta: 100}
	second := storage
	second.Row = 6
	notPD := laptopOpts(128, SchemeOnline)
	notPD.MaxAttempts = 1
	notPD.Data.Set(0, 0, -1)

	cases := []struct {
		name string
		o    Options
		want Failure
		text string // in the error Run returns; "" for a clean run
	}{
		{"clean", model(SchemeEnhanced), FailureNone, ""},
		{"online storage fault", model(SchemeOnline, storage), FailureRejected,
			"core: online-abft failed after 1 attempts: core: final result rejected: "},
		{"enhanced burst", model(SchemeEnhanced, storage, second), FailureUncorrectable,
			"corrupted beyond checksum correction: 2 errors in one block column exceed the 2-vector code"},
		{"not positive definite", notPD, FailureFailStop,
			"core: POTF2 failed (matrix block not positive definite): block 0: "},
	}
	for _, tc := range cases {
		res, err := Run(tc.o)
		if res.Failure != tc.want {
			t.Errorf("%s: Failure = %d (%q), want %d (%q)", tc.name, res.Failure, res.Failure.Code(), tc.want, tc.want.Code())
		}
		switch {
		case tc.text == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.text != "" && (err == nil || !strings.Contains(err.Error(), tc.text)):
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.text)
		}
	}
}

func TestParseSchemeRoundTrip(t *testing.T) {
	for _, s := range []Scheme{SchemeNone, SchemeCULA, SchemeOffline, SchemeOnline, SchemeEnhanced, SchemeOnlineScrub} {
		key := SchemeKey(s)
		got, err := ParseScheme(key)
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", key, err)
		}
		if got != s {
			t.Fatalf("ParseScheme(SchemeKey(%v)) = %v", s, got)
		}
	}
	if s, err := ParseScheme("NONE"); err != nil || s != SchemeNone {
		t.Fatalf("case-insensitive alias: %v, %v", s, err)
	}
	if _, err := ParseScheme("hybrid"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
