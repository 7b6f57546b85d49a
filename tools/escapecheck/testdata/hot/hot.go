// Package hot is escapecheck's fixture: each function is one case of
// the abft:hotpath and abft:bce rules. A want comment, followed by a
// quoted regexp, marks every line the checker must report, and the
// regexp must match each report on that line; no other line may be
// reported.
package hot

import (
	"fmt"
	"math"
	"sync"
)

// escapingMake allocates a non-constant scratch slice per element:
// the slice escapes to the heap.
//
// abft:hotpath
func escapingMake(n int, alpha float64, x, y []float64) {
	for i := range x {
		tmp := make([]float64, n) // want "make\\(\\[\\]float64, n\\) escapes to heap"
		tmp[0] = alpha * x[i]
		y[i] += tmp[0]
	}
}

// localMake is the same loop with a constant-size scratch slice, which
// stays on the stack.
//
// abft:hotpath
func localMake(alpha float64, x, y []float64) {
	for i := range x {
		tmp := make([]float64, 1)
		tmp[0] = alpha * x[i]
		y[i] += tmp[0]
	}
}

func scratch(n int) []float64 { return make([]float64, n) }

func twice(v float64) float64 { return 2 * v }

// helperEscape calls an inlined helper whose make escapes; the
// compiler reports the escape on the caller's line.
//
// abft:hotpath
func helperEscape(n int) []float64 {
	return scratch(n) // want "escapes to heap"
}

// helperInlined calls an inlined helper that allocates nothing.
//
// abft:hotpath
func helperInlined(v float64) float64 {
	return twice(v)
}

//go:noinline
func opaque(v float64) float64 { return v + 1 }

// annotated is not inlined either, but it is itself abft:hotpath.
//
// abft:hotpath
//
//go:noinline
func annotated(v float64) float64 { return v + 1 }

// abft:hotpath
func callsOpaque(v float64) float64 {
	return opaque(v) // want "call to .*hot.opaque is neither inlined"
}

// abft:hotpath
func callsAnnotated(v float64) float64 {
	return annotated(v)
}

// abft:hotpath
func callsFuncValue(f func(float64) float64, v float64) float64 {
	return f(v) // want "dynamic call through a func value"
}

// abft:hotpath
func callsInterface(err error) string {
	return err.Error() // want "dynamic call of interface method Error"
}

var mu sync.Mutex

// abft:hotpath
func locks(x []float64) {
	mu.Lock() // want "call to \\(\\*sync.Mutex\\).Lock"
	x[0]++
	mu.Unlock() // want "call to \\(\\*sync.Mutex\\).Unlock"
}

var pool = sync.Pool{New: func() any { return new([8]float64) }}

// abft:hotpath
func poolOutsideLoop(x []float64) {
	p := pool.Get().(*[8]float64)
	for i, v := range x {
		p[i&7] += v
	}
	pool.Put(p)
}

// abft:hotpath
func poolInLoop(x []float64) {
	for _, v := range x {
		p := pool.Get().(*[8]float64) // want "sync.Pool Get inside a loop"
		p[0] = v
		pool.Put(p) // want "sync.Pool Put inside a loop"
	}
}

// leafAndSqrt calls an assembly leaf and math.Sqrt, which is inlined.
//
// abft:hotpath
func leafAndSqrt(v float64) float64 {
	return math.Sqrt(leaf(v))
}

// fused calls math.FMA, which is not inlined but replaced by an
// intrinsic.
//
// abft:hotpath
func fused(a, b, c float64) float64 {
	return math.FMA(a, b, c)
}

// abft:hotpath
func defers(x []float64) {
	defer clear(x) // want "defer"
	x[0] = 1
}

// abft:hotpath
func spawns(x []float64) {
	go clear(x) // want "go statement|escapes to heap"
}

// abft:hotpath
func selects(c chan float64) float64 {
	select { // want "select"
	case v := <-c: // want "channel receive"
		return v
	default:
		return 0
	}
}

// abft:hotpath
func sends(c chan float64, v float64) {
	c <- v // want "channel send"
}

// abft:hotpath
func drains(c chan float64) float64 {
	s := 0.0
	for v := range c { // want "range over a channel"
		s += v
	}
	return s
}

// abft:hotpath
func mapRange(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m { // want "map range"
		s += v
	}
	return s
}

// guarded allocates only on its fail-stop paths: an if-body that
// returns a non-nil error and a panic.
//
// abft:hotpath
func guarded(n int, x []float64) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("hot: negative length %d", n)
	}
	if n > len(x) {
		panic(fmt.Sprintf("hot: length %d beyond %d", n, len(x)))
	}
	s := 0.0
	for _, v := range x[:n] {
		s += v
	}
	return s, nil
}

// bareReturn's if-body ends in a bare return, so it stays hot.
//
// abft:hotpath
func bareReturn(x []float64) {
	if len(x) == 0 {
		fmt.Println("hot: empty") // want "call to fmt.Println|escapes to heap"
		return
	}
	x[0] = 1
}

// strided keeps one bounds check: x[2*i] is not provably in range.
//
// abft:bce checks=1
func strided(x []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[2*i]
	}
	return s
}

// abft:bce checks=0
func miscounted(x []float64) float64 { // want "declares checks=0, the compiler emitted 1"
	s := 0.0
	for i := range x {
		s += x[2*i]
	}
	return s
}
