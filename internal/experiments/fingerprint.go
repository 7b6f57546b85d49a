package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"

	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// pointKey is the canonical, content-addressable identity of one
// factorization point: every Options field that can change the
// simulated outcome, with defaults resolved so that spellings that
// mean the same run (K=0 vs K=1, ChecksumVectors 0 vs 2) share one
// key. Observational fields (Trace, Metrics) are deliberately absent —
// attaching instrumentation never changes a result — and real-plane
// input data enters through a content hash. The struct marshals with
// a fixed field order, so its JSON is a canonical form and its SHA-256
// is a stable fingerprint across processes. appendJSON writes that
// JSON by hand: a field added here must be added there too, which
// FuzzFingerprint enforces.
type pointKey struct {
	Profile          hetsim.Profile   `json:"profile"`
	N                int              `json:"n"`
	BlockSize        int              `json:"block_size"`
	Scheme           core.Scheme      `json:"scheme"`
	Variant          core.Variant     `json:"variant"`
	K                int              `json:"k"`
	ChecksumVectors  int              `json:"checksum_vectors"`
	ConcurrentRecalc bool             `json:"concurrent_recalc"`
	Placement        core.Placement   `json:"placement"`
	Scenarios        []fault.Scenario `json:"scenarios,omitempty"`
	MaxAttempts      int              `json:"max_attempts"`
	DataHash         string           `json:"data_hash,omitempty"`
}

// keyOf canonicalizes one options point. It applies the same defaults
// core.Options.normalize does, without validating: invalid options get
// a fingerprint too (their outcome — the validation error — is just as
// memoizable as a result).
func keyOf(o core.Options) pointKey {
	k := pointKey{
		Profile:          o.Profile,
		N:                o.N,
		BlockSize:        o.BlockSize,
		Scheme:           o.Scheme,
		Variant:          o.Variant,
		K:                o.K,
		ChecksumVectors:  o.ChecksumVectors,
		ConcurrentRecalc: o.ConcurrentRecalc,
		Placement:        o.Placement,
		Scenarios:        o.Scenarios,
		MaxAttempts:      o.MaxAttempts,
	}
	if k.BlockSize <= 0 {
		k.BlockSize = o.Profile.BlockSize
	}
	if k.K < 1 {
		k.K = 1
	}
	if k.ChecksumVectors == 0 {
		k.ChecksumVectors = 2
	}
	if k.MaxAttempts <= 0 {
		k.MaxAttempts = 3
	}
	if o.Data != nil {
		k.DataHash = dataHash(o.Data)
	}
	return k
}

// fingerprint returns the hex SHA-256 of the point's canonical JSON:
// the key under which the scheduler deduplicates work and the result
// cache addresses its entries.
func fingerprint(o core.Options) string {
	return keyOf(o).fingerprint()
}

// Fingerprint exposes the canonical point fingerprint to other
// packages: the job daemon (internal/server) uses it as the dedup and
// result-store key for submitted jobs, so a job's identity over HTTP
// is exactly its identity in the sweep engine and the on-disk cache.
func Fingerprint(o core.Options) string {
	return fingerprint(o)
}

func (k pointKey) fingerprint() string {
	var buf [2048]byte
	blob, err := k.appendJSON(buf[:0])
	if err != nil {
		// Only a NaN or infinite float fails, as it fails
		// json.Marshal; no decoded request carries one.
		panic(fmt.Sprintf("experiments: cannot canonicalize point: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// appendJSON appends the point's canonical form, byte for byte what
// json.Marshal(k) writes (field order, omitempty, HTML-escaped
// strings, encoding/json's float format), without reflection. It
// fails, as json.Marshal does, on a NaN or infinite float.
func (k *pointKey) appendJSON(b []byte) ([]byte, error) {
	var w jsonWriter
	b = key(b, '{', "profile")
	b = w.profile(b, &k.Profile)
	b = intField(b, ',', "n", int64(k.N))
	b = intField(b, ',', "block_size", int64(k.BlockSize))
	b = intField(b, ',', "scheme", int64(k.Scheme))
	b = intField(b, ',', "variant", int64(k.Variant))
	b = intField(b, ',', "k", int64(k.K))
	b = intField(b, ',', "checksum_vectors", int64(k.ChecksumVectors))
	b = key(b, ',', "concurrent_recalc")
	b = strconv.AppendBool(b, k.ConcurrentRecalc)
	b = intField(b, ',', "placement", int64(k.Placement))
	if len(k.Scenarios) > 0 {
		b = append(key(b, ',', "scenarios"), '[')
		for i := range k.Scenarios {
			if i > 0 {
				b = append(b, ',')
			}
			b = w.scenario(b, &k.Scenarios[i])
		}
		b = append(b, ']')
	}
	b = intField(b, ',', "max_attempts", int64(k.MaxAttempts))
	if k.DataHash != "" {
		b = stringField(b, ',', "data_hash", k.DataHash)
	}
	return append(b, '}'), w.err
}

// key appends sep (an object's '{' or a ',') and a field name, which
// is plain ASCII and needs no escaping.
func key(b []byte, sep byte, name string) []byte {
	b = append(b, sep, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

func intField(b []byte, sep byte, name string, v int64) []byte {
	return strconv.AppendInt(key(b, sep, name), v, 10)
}

func stringField(b []byte, sep byte, name, v string) []byte {
	return appendString(key(b, sep, name), v)
}

// appendString appends s quoted as encoding/json quotes it. Names and
// hashes are plain printable ASCII, copied as they are; any other
// string goes through encoding/json itself, whose escaping
// (HTML-sensitive characters, control bytes, U+2028 and U+2029,
// invalid UTF-8) the fingerprint must reproduce.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonWriter appends the fields of pointKey that carry floats; err
// records the first one json.Marshal would refuse.
type jsonWriter struct {
	err error
}

// float appends a float field, its value as encoding/json writes
// one: shortest round-trip digits, exponent form below 1e-6 and from
// 1e21 up, with a one-digit exponent unpadded ("1e-7", not "1e-07").
func (w *jsonWriter) float(b []byte, sep byte, name string, v float64) []byte {
	return w.number(key(b, sep, name), v)
}

func (w *jsonWriter) number(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// floats appends a float-array field.
func (w *jsonWriter) floats(b []byte, sep byte, name string, vs []float64) []byte {
	b = append(key(b, sep, name), '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = w.number(b, v)
	}
	return append(b, ']')
}

// profile appends p's encoding, from the profile cache when p is in it.
func (w *jsonWriter) profile(b []byte, p *hetsim.Profile) []byte {
	memo := profileMemo.Get().(*profileEncoding)
	defer profileMemo.Put(memo)
	if memo.enc != nil && sameBits(&memo.p, p) {
		return append(b, memo.enc...)
	}
	start := len(b)
	b = stringField(b, '{', "Name", p.Name)
	b = intField(b, ',', "BlockSize", int64(p.BlockSize))
	b = key(b, ',', "GPU")
	b = w.device(b, &p.GPU)
	b = key(b, ',', "CPU")
	b = w.device(b, &p.CPU)
	b = key(b, ',', "Link")
	b = w.float(b, '{', "BandwidthGBs", p.Link.BandwidthGBs)
	b = w.float(b, ',', "Latency", p.Link.Latency)
	b = append(b, '}')
	b = w.float(b, ',', "CPUUpdateGFLOPS", p.CPUUpdateGFLOPS)
	b = w.float(b, ',', "CULARelEff", p.CULARelEff)
	b = w.float(b, ',', "VerifyBatchSync", p.VerifyBatchSync)
	b = intField(b, ',', "MaxN", int64(p.MaxN))
	b = append(b, '}')
	if w.err == nil {
		memo.p, memo.enc = *p, append(memo.enc[:0], b[start:]...)
	}
	return b
}

func (w *jsonWriter) device(b []byte, d *hetsim.DeviceSpec) []byte {
	b = stringField(b, '{', "Name", d.Name)
	b = w.float(b, ',', "PeakGFLOPS", d.PeakGFLOPS)
	b = w.float(b, ',', "MemBWGBs", d.MemBWGBs)
	b = intField(b, ',', "ConcurrentKernels", int64(d.ConcurrentKernels))
	b = w.float(b, ',', "LaunchOverhead", d.LaunchOverhead)
	b = w.float(b, ',', "DispatchGap", d.DispatchGap)
	b = w.floats(b, ',', "EffMax", d.EffMax[:])
	b = w.floats(b, ',', "EffHalfFlops", d.EffHalfFlops[:])
	b = w.floats(b, ',', "BWEff", d.BWEff[:])
	return append(b, '}')
}

func (w *jsonWriter) scenario(b []byte, s *fault.Scenario) []byte {
	b = intField(b, '{', "Kind", int64(s.Kind))
	b = intField(b, ',', "Iter", int64(s.Iter))
	b = intField(b, ',', "Op", int64(s.Op))
	b = intField(b, ',', "BI", int64(s.BI))
	b = intField(b, ',', "BJ", int64(s.BJ))
	b = intField(b, ',', "Row", int64(s.Row))
	b = intField(b, ',', "Col", int64(s.Col))
	b = w.float(b, ',', "Delta", s.Delta)
	b = intField(b, ',', "Bit", int64(s.Bit))
	return append(b, '}')
}

// profileMemo keeps the encoding of a recently fingerprinted profile,
// two thirds of a point's canonical form: a sweep or campaign
// fingerprints thousands of points on a handful of machines. The pool
// bounds it to an entry per processor, whatever profiles requests
// carry, and the collector may drop them.
var profileMemo = sync.Pool{New: func() any { return new(profileEncoding) }}

type profileEncoding struct {
	p   hetsim.Profile
	enc []byte
}

// sameBits reports whether two profiles are identical bit for bit. ==
// is not enough: it equates 0 and -0, which encode differently. The
// raw memory compares floats and ints by their bits and strings by
// their headers; a cached profile keeps its strings alive, so equal
// headers mean equal text, and equal text behind different headers
// only costs a miss. Profile holds no other pointers and no padding.
func sameBits(a, b *hetsim.Profile) bool {
	n := unsafe.Sizeof(*a)
	return string(unsafe.Slice((*byte)(unsafe.Pointer(a)), n)) == string(unsafe.Slice((*byte)(unsafe.Pointer(b)), n))
}

// dataHash fingerprints a real-plane input matrix by content, so two
// identically generated inputs (same RandSPD seed and size) share one
// cached result while different inputs never collide.
func dataHash(m *mat.Matrix) string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m.Cols))
	h.Write(hdr[:])
	var buf [8]byte
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.At(i, j)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
