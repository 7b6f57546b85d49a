package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"

	"abftchol/internal/guard"
)

// Registry holds one deterministic set of metrics, pre-registered
// from Catalog. It is strict: touching a name the catalog does not
// declare panics, so a typo fails the first test that exercises the
// path instead of silently dropping data. A lock makes concurrent
// emission safe (the sweep engine's worker pool shares one sink);
// determinism is unaffected because every metric is a commutative
// accumulation, so a snapshot is a pure function of the set of runs
// merged in, not of their interleaving. For byte-stable *ordering*
// guarantees the sweep engine still merges per-run deltas in
// canonical point order (see internal/experiments).
type Registry struct {
	m guard.Mutex[metrics]
}

// metrics is a registry's guarded state.
type metrics struct {
	counters map[string]int64
	values   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry builds a registry with every catalog metric at zero.
func NewRegistry() *Registry {
	r := &Registry{}
	r.m.Do(func(m *metrics) {
		m.counters = make(map[string]int64)
		m.values = make(map[string]float64)
		m.hists = make(map[string]*Histogram)
		for _, c := range Catalog {
			switch c.Kind {
			case Counter:
				m.counters[c.Name] = 0
			case Value:
				m.values[c.Name] = 0
			case HistogramKind:
				m.hists[c.Name] = &Histogram{}
			}
		}
	})
	return r
}

func unknown(kind Kind, name string) string {
	return fmt.Sprintf("obs: %s %q is not in the catalog; declare it in internal/obs/catalog.go", kind, name)
}

// Inc adds one to a counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds d to a counter.
func (r *Registry) Add(name string, d int64) {
	r.m.Do(func(m *metrics) {
		if _, ok := m.counters[name]; !ok {
			panic(unknown(Counter, name))
		}
		m.counters[name] += d
	})
}

// AddValue adds v to a float accumulator.
func (r *Registry) AddValue(name string, v float64) {
	r.m.Do(func(m *metrics) {
		if _, ok := m.values[name]; !ok {
			panic(unknown(Value, name))
		}
		m.values[name] += v
	})
}

// Observe records v into a histogram.
func (r *Registry) Observe(name string, v float64) {
	r.m.Do(func(m *metrics) {
		h, ok := m.hists[name]
		if !ok {
			panic(unknown(HistogramKind, name))
		}
		h.observe(v)
	})
}

// Counter reads a counter's current value (tests and assertions).
func (r *Registry) Counter(name string) int64 {
	var v int64
	var ok bool
	r.m.Do(func(m *metrics) { v, ok = m.counters[name] })
	if !ok {
		panic(unknown(Counter, name))
	}
	return v
}

// Value reads a float accumulator's current value.
func (r *Registry) Value(name string) float64 {
	var v float64
	var ok bool
	r.m.Do(func(m *metrics) { v, ok = m.values[name] })
	if !ok {
		panic(unknown(Value, name))
	}
	return v
}

// HistogramCount reads a histogram's observation count.
func (r *Registry) HistogramCount(name string) int64 {
	var n int64
	var ok bool
	r.m.Do(func(m *metrics) {
		if h, found := m.hists[name]; found {
			n, ok = h.Count, true
		}
	})
	if !ok {
		panic(unknown(HistogramKind, name))
	}
	return n
}

// Merge folds every metric of src into r: counters and values add,
// histograms add bucket-wise. Both registries hold the same closed
// catalog, so there is nothing to reconcile — Merge(a, b) followed by
// Snapshot is byte-identical to having emitted both registries' events
// into one. The sweep engine gives each concurrent factorization a
// private registry and merges the deltas in canonical point order, so
// parallel sweeps snapshot byte-identically to serial ones. src is
// copied under its own lock and added in under r's, so Merge never
// holds two registry locks and a.Merge(b) may run alongside
// b.Merge(a).
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r {
		return
	}
	var delta metrics
	src.m.Do(func(m *metrics) {
		delta.counters = maps.Clone(m.counters)
		delta.values = maps.Clone(m.values)
		delta.hists = make(map[string]*Histogram, len(m.hists))
		for name, h := range m.hists {
			c := *h
			delta.hists[name] = &c
		}
	})
	r.m.Do(func(m *metrics) {
		for name, v := range delta.counters {
			m.counters[name] += v
		}
		for name, v := range delta.values {
			m.values[name] += v
		}
		for name, h := range delta.hists {
			dst := m.hists[name]
			dst.Count += h.Count
			dst.Sum += h.Sum
			dst.Underflow += h.Underflow
			dst.Overflow += h.Overflow
			for i := range h.buckets {
				dst.buckets[i] += h.buckets[i]
			}
		}
	})
}

// Histogram is a log₂-bucketed distribution: bucket i counts
// observations v with v <= 2^i (i in 0..maxBucket); smaller and
// larger observations land in the underflow/overflow counts. Powers
// of two up to 2^40 span sub-microsecond kernels to multi-gigabyte
// transfers with ~3 dB resolution, and integer bucket math keeps the
// snapshot exact.
type Histogram struct {
	Count     int64
	Sum       float64
	Underflow int64 // v <= 0
	Overflow  int64 // v > 2^maxBucket
	buckets   [maxBucket + 1]int64
}

const maxBucket = 40

func (h *Histogram) observe(v float64) {
	h.Count++
	h.Sum += v
	if v <= 0 {
		h.Underflow++
		return
	}
	le := float64(1) // 2^0
	for i := 0; i <= maxBucket; i++ {
		if v <= le {
			h.buckets[i]++
			return
		}
		le *= 2
	}
	h.Overflow++
}

// bucketSnapshot is one non-empty histogram bucket in a snapshot.
type bucketSnapshot struct {
	LE float64 `json:"le"` // upper bound, inclusive
	N  int64   `json:"n"`
}

// histSnapshot is a histogram's serialized form; only non-empty
// buckets appear.
type histSnapshot struct {
	Count     int64            `json:"count"`
	Sum       float64          `json:"sum"`
	Underflow int64            `json:"underflow,omitempty"`
	Overflow  int64            `json:"overflow,omitempty"`
	Buckets   []bucketSnapshot `json:"buckets,omitempty"`
}

// snapshot is the full registry serialization. encoding/json emits
// map keys sorted, so the byte output is a pure function of the
// metric values.
type snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Values     map[string]float64      `json:"values"`
	Histograms map[string]histSnapshot `json:"histograms"`
}

// Snapshot serializes every metric — zeros included, so two snapshots
// of the same catalog always have the same shape — as indented JSON.
// Identical runs produce byte-identical snapshots.
func (r *Registry) Snapshot() ([]byte, error) {
	var b []byte
	var err error
	r.m.Do(func(m *metrics) {
		s := snapshot{
			Counters:   m.counters,
			Values:     m.values,
			Histograms: make(map[string]histSnapshot, len(m.hists)),
		}
		for name, h := range m.hists {
			hs := histSnapshot{Count: h.Count, Sum: h.Sum, Underflow: h.Underflow, Overflow: h.Overflow}
			le := float64(1)
			for i := 0; i <= maxBucket; i++ {
				if h.buckets[i] > 0 {
					hs.Buckets = append(hs.Buckets, bucketSnapshot{LE: le, N: h.buckets[i]})
				}
				le *= 2
			}
			s.Histograms[name] = hs
		}
		b, err = json.MarshalIndent(&s, "", "  ")
	})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Names returns every registered metric name, sorted — the live
// registry's view for the catalog drift test.
func (r *Registry) Names() []string {
	var out []string
	r.m.Do(func(m *metrics) {
		for n := range m.counters {
			out = append(out, n)
		}
		for n := range m.values {
			out = append(out, n)
		}
		for n := range m.hists {
			out = append(out, n)
		}
	})
	sort.Strings(out)
	return out
}
