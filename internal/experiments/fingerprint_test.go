package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
	"abftchol/internal/obs"
)

func TestFingerprintNormalizesDefaults(t *testing.T) {
	prof := hetsim.Tardis()
	base := core.Options{Profile: prof, N: 5120, Scheme: core.SchemeEnhanced}
	spelled := base
	spelled.K = 1
	spelled.ChecksumVectors = 2
	spelled.MaxAttempts = 3
	spelled.BlockSize = prof.BlockSize
	if fingerprint(base) != fingerprint(spelled) {
		t.Error("default spellings of the same point fingerprint differently")
	}
}

func TestFingerprintIgnoresObservation(t *testing.T) {
	o := core.Options{Profile: hetsim.Tardis(), N: 5120, Scheme: core.SchemeEnhanced}
	instrumented := o
	instrumented.Trace = true
	instrumented.Metrics = obs.NewRegistry()
	if fingerprint(o) != fingerprint(instrumented) {
		t.Error("attaching instrumentation changed the fingerprint")
	}
}

func TestFingerprintSeparatesPoints(t *testing.T) {
	base := core.Options{Profile: hetsim.Tardis(), N: 5120, Scheme: core.SchemeEnhanced}
	seen := map[string]string{fingerprint(base): "base"}
	variants := map[string]core.Options{}
	o := base
	o.N = 7680
	variants["different n"] = o
	o = base
	o.Scheme = core.SchemeOnline
	variants["different scheme"] = o
	o = base
	o.K = 3
	variants["different K"] = o
	o = base
	o.Variant = core.RightLooking
	variants["different variant"] = o
	o = base
	o.ConcurrentRecalc = true
	variants["opt1 on"] = o
	o = base
	o.Placement = core.PlaceCPU
	variants["different placement"] = o
	o = base
	o.Scenarios = []fault.Scenario{fault.DefaultStorage(3)}
	variants["with injection"] = o
	o = base
	o.Profile = hetsim.Bulldozer64()
	variants["different machine"] = o
	for name, v := range variants {
		fp := fingerprint(v)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

func TestFingerprintHashesRealData(t *testing.T) {
	o := core.Options{Profile: hetsim.Laptop(), N: 64, Scheme: core.SchemeEnhanced}
	a, b := o, o
	a.Data = mat.RandSPD(64, 1)
	b.Data = mat.RandSPD(64, 2)
	same := o
	same.Data = mat.RandSPD(64, 1)
	if fingerprint(a) == fingerprint(o) {
		t.Error("real-plane point collides with its model-plane twin")
	}
	if fingerprint(a) == fingerprint(b) {
		t.Error("different inputs share a fingerprint")
	}
	if fingerprint(a) != fingerprint(same) {
		t.Error("identically generated inputs should share a fingerprint")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	cache := NewCache(t.TempDir())
	o := core.Options{Profile: hetsim.Laptop(), N: 256, Scheme: core.SchemeEnhanced,
		K: 2, ConcurrentRecalc: true, Placement: core.PlaceAuto,
		Scenarios: []fault.Scenario{func() fault.Scenario {
			s := fault.DefaultStorage(3)
			s.Delta = 1e5
			return s
		}()}}
	want, err := core.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(o, want); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Load(fingerprint(o))
	if !ok {
		t.Fatal("stored entry did not load")
	}
	if got.Attempts != want.Attempts || got.Corrections != want.Corrections ||
		got.VerifiedBlocks != want.VerifiedBlocks || got.N != want.N ||
		got.Scheme != want.Scheme || len(got.Injections) != len(want.Injections) {
		t.Errorf("round trip changed the result: got %+v want %+v", got, want)
	}
	if diff := got.Time - want.Time; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("round trip changed Time: %g vs %g", got.Time, want.Time)
	}
	if _, ok := cache.Load("deadbeef"); ok {
		t.Error("unknown fingerprint loaded")
	}
}

// FuzzCacheLoad: whatever bytes sit in an entry file, Load does not
// panic, and an entry it accepts stores and loads again to the same
// WireResult (compared as JSON, so an empty and an absent injection
// list are the same). The seeds are the entries Store wrote for every
// fingerprint base that factors without error (the scheduler stores
// no failed point), whole, cut short, and filed under another point's
// fingerprint.
func FuzzCacheLoad(f *testing.F) {
	bases := fingerprintBases()
	seeds := NewCache(f.TempDir())
	var fps []string
	for _, o := range bases {
		r, err := core.Run(o)
		if err != nil {
			continue
		}
		if err := seeds.Store(o, r); err != nil {
			f.Fatal(err)
		}
		fps = append(fps, fingerprint(o))
	}
	for i, fp := range fps {
		data, err := os.ReadFile(seeds.path(fp))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fp, data)
		f.Add(fp, data[:len(data)/2])
		f.Add(fps[(i+1)%len(fps)], data)
	}
	o := bases[0]
	f.Fuzz(func(t *testing.T, fp string, data []byte) {
		if fp == "" || strings.ContainsAny(fp, "/\\\x00") {
			return // not a file name inside the cache directory
		}
		c := NewCache(t.TempDir())
		if err := os.WriteFile(filepath.Join(c.Dir(), fp+".json"), data, 0o644); err != nil {
			return
		}
		r, ok := c.Load(fp)
		if !ok {
			return
		}
		want, err := json.Marshal(ToWire(r))
		if err != nil {
			t.Fatalf("accepted entry does not encode: %v", err)
		}
		if err := c.Store(o, r); err != nil {
			t.Fatalf("accepted entry does not store: %v", err)
		}
		again, ok := c.Load(fingerprint(o))
		if !ok {
			t.Fatal("stored entry did not load")
		}
		if got, _ := json.Marshal(ToWire(again)); !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the result:\n got %s\nwant %s", got, want)
		}
	})
}

// fingerprintBases are the points FuzzFingerprint mutates: the
// default point of each stock profile, and a trial of every cell of
// the default reliability campaign (laptop, n=512, K=2, one attempt,
// Optimization 1 on; magma, online and enhanced × every fault class at
// the default rate, delta and burst size), each the first trial seed
// that draws a fault.
func fingerprintBases() []core.Options {
	var bases []core.Options
	for _, p := range []hetsim.Profile{hetsim.Tardis(), hetsim.Bulldozer64(), hetsim.Laptop()} {
		bases = append(bases, core.Options{Profile: p, N: 8 * p.BlockSize, Scheme: core.SchemeEnhanced})
	}
	const n = 512
	prof := hetsim.Laptop()
	for _, sch := range []core.Scheme{core.SchemeNone, core.SchemeOnline, core.SchemeEnhanced} {
		for _, cl := range fault.Classes() {
			cfg := fault.CampaignConfig{Blocks: n / prof.BlockSize, BlockSize: prof.BlockSize, RatePerIteration: 0.05, Class: cl}
			var scns []fault.Scenario
			for seed := int64(1); len(scns) == 0; seed++ {
				cfg.Seed = seed
				scns = fault.Campaign(cfg)
			}
			bases = append(bases, core.Options{Profile: prof, N: n, K: 2, Scheme: sch,
				MaxAttempts: 1, ConcurrentRecalc: true, Scenarios: scns})
		}
	}
	return bases
}

// leaves returns the settable float64 and integer fields of a point,
// Profile and Scenarios included (Data and Metrics are pointers and
// not walked).
func leaves(v reflect.Value) (floats, ints []reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		floats = append(floats, v)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		ints = append(ints, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f, n := leaves(v.Field(i))
				floats, ints = append(floats, f...), append(ints, n...)
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			f, n := leaves(v.Index(i))
			floats, ints = append(floats, f...), append(ints, n...)
		}
	}
	return floats, ints
}

// FuzzFingerprint pins the fingerprint's hand-written canonical form
// to json.Marshal(pointKey) byte for byte: a point is a base (above)
// with its names, data hash, one float field and one integer field
// replaced (field 0 leaves them); hash stands in for a real-plane
// data hash. NaN and ±Inf must fail both
// encoders with the same error.
func FuzzFingerprint(f *testing.F) {
	bases := fingerprintBases()
	for i := range bases {
		f.Add(uint8(i), "", "", uint16(0), 0.0, uint16(0), int64(0))
	}
	for _, s := range []string{"<b>&amp;</b>", "line\u2028para\u2029end", "bad\xff\xfeutf8", "ctl\x00\x01\x7f\b\f\t\n\r\"\\", "\u00b5s\u2014ok"} {
		f.Add(uint8(0), s, s, uint16(0), 0.0, uint16(0), int64(0))
	}
	// Scenario deltas at encoding/json's format edges: the exponent
	// cutoffs, negative zero, the smallest subnormal, the largest
	// finite value, and the unencodable ones.
	withFault := slices.IndexFunc(bases, func(o core.Options) bool { return len(o.Scenarios) > 0 })
	o := bases[withFault]
	floats, _ := leaves(reflect.ValueOf(&o).Elem())
	delta := 1 + uint16(slices.IndexFunc(floats, func(v reflect.Value) bool {
		return v.Addr().Interface() == &o.Scenarios[0].Delta
	}))
	if delta == 0 {
		f.Fatal("no scenario Delta among the point's float fields")
	}
	for _, d := range []float64{1e-7, 1e-6, 1e21, 123456789e13, math.Copysign(0, -1), 5e-324, math.MaxFloat64, -1.5e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint8(withFault), "", "", delta, d, uint16(0), int64(0))
		f.Add(uint8(0), "", "", uint16(3), d, uint16(2), int64(-1<<40))
	}
	// Negative zero where the stock profile holds zero: == equates
	// them but they encode differently, so the profile cache must not.
	floats, _ = leaves(reflect.ValueOf(&bases[0]).Elem())
	for i, v := range floats {
		if v.Float() == 0 {
			f.Add(uint8(0), "", "", uint16(i+1), math.Copysign(0, -1), uint16(0), int64(0))
		}
	}
	f.Fuzz(func(t *testing.T, base uint8, name, hash string, field uint16, val float64, ifield uint16, ival int64) {
		o := bases[int(base)%len(bases)]
		o.Scenarios = slices.Clone(o.Scenarios)
		if name != "" {
			o.Profile.Name, o.Profile.GPU.Name = name, name+"/gpu"
		}
		floats, ints := leaves(reflect.ValueOf(&o).Elem())
		if field > 0 {
			floats[int(field-1)%len(floats)].SetFloat(val)
		}
		if ifield > 0 {
			ints[int(ifield-1)%len(ints)].SetInt(ival)
		}
		k := keyOf(o)
		if hash != "" {
			k.DataHash = hash
		}
		got, gotErr := k.appendJSON(nil)
		want, wantErr := json.Marshal(k)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("appender error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("appender fails with %q, json.Marshal with %q", gotErr, wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical forms differ:\nappender: %s\njson:     %s", got, want)
		}
	})
}

// TestFingerprintPinned pins one point's fingerprint as recorded by
// the json.Marshal encoder: journals, caches and SERVICE.md store
// fingerprints, so the value itself must never move.
func TestFingerprintPinned(t *testing.T) {
	o := core.Options{Profile: hetsim.Laptop(), N: 512, BlockSize: 32, Scheme: core.SchemeEnhanced, K: 2,
		Scenarios: []fault.Scenario{fault.DefaultStorage(3),
			{Kind: fault.Computation, Iter: 5, Op: fault.OpTRSM, BI: 9, BJ: 5, Row: 7, Col: 1, Delta: 1e-7}}}
	const want = "e297dfcebdb2de4bef58e4d3d01d55577bbe6e234531932783353366001506ee"
	if got := Fingerprint(o); got != want {
		t.Fatalf("fingerprint = %s, want %s", got, want)
	}
}
