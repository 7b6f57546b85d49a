// Package outputtest exercises the determinism analyzer's output
// rules: map ranges feeding emit sinks, unsorted accumulators, the
// clock rules, pointer formatting, and the //nolint escape.
package outputtest

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// emitInRange stamps map iteration order straight into the stream.
func emitInRange(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want "emit inside a range over a map"
	}
}

// encodeInRange streams one JSON document per key, in map order.
func encodeInRange(enc *json.Encoder, m map[string]int) {
	for k := range m {
		enc.Encode(k) // want "emit inside a range over a map"
	}
}

// buildInRange accumulates rendered text per key, in map order.
func buildInRange(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want "emit inside a range over a map"
	}
	return b.String()
}

// sortedKeys is the sanctioned pattern: collect, sort, then emit.
func sortedKeys(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}

// appendNoSort returns keys in iteration order and never sorts.
func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to keys inside a range over a map without a sort"
	}
	return keys
}

// conditionalSort still launders the order: the sort check is
// deliberately flow-insensitive, so a guarded sort is enough.
func conditionalSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	if len(keys) > 1 {
		sort.Strings(keys)
	}
	return keys
}

// mapToMap re-keys into another map: order-insensitive, allowed.
func mapToMap(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// perIterationLocal appends to a slice declared inside the body; its
// order dies with the iteration.
func perIterationLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var doubled []int
		for _, v := range vs {
			doubled = append(doubled, v*2)
		}
		total += len(doubled)
	}
	return total
}

// clockInOutput shows the clock rules apply in these packages too.
func clockInOutput(w io.Writer) {
	fmt.Fprintf(w, "took %v\n", time.Now()) // want "reads the wall clock"
}

// pointerFormat prints an address, which differs every run.
func pointerFormat(w io.Writer, v *int) {
	fmt.Fprintf(w, "at %p\n", v) // want "formats a pointer address"
}

// escaped exercises the sanctioned suppression.
func escaped(w io.Writer, m map[string]bool) {
	for k := range m {
		fmt.Fprintln(w, k) //nolint:determinism — debug dump; ordering is cosmetic
	}
}
