// Package guard puts shared state behind its lock, and goroutines
// behind their join, by construction.
//
// A Mutex[T] holds a value of T that is reachable only through Do,
// which runs while the lock is held, so "field f is guarded by mu" is
// a fact the type checker enforces rather than a comment a lint has to
// verify.
//
// Keep T unexported and its fields unexported, and do not let a
// pointer into it leave the function passed to Do: that is the one
// discipline the type cannot enforce. A method declared on T (or on a
// type reached only through T) can assume the lock is held, because
// the only way to get a *T is to be inside Do.
//
// A Group owns the goroutines it starts: Go counts one in before it
// starts and out when it returns, however it returns, so Wait cannot
// miss one. Left to the caller: call Wait on every path, and order
// each Go before any Wait it must not escape (a Go that races Wait
// from zero is a data race, which is why the daemon spawns campaigns
// under the lock that also marks it draining).
package guard

import "sync"

// Mutex is a value of T together with the lock that guards it. The
// zero value holds T's zero value, unlocked. A Mutex must not be
// copied after first use (go vet's copylocks check covers it).
type Mutex[T any] struct {
	mu sync.Mutex
	v  T
}

// Do runs f with the lock held and the guarded value passed in; the
// lock is released when f returns or panics. f must not call Do on the
// same Mutex, and should not block on channels or call code it does
// not control.
func (m *Mutex[T]) Do(f func(*T)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f(&m.v)
}

// Group joins the goroutines started through it. The zero value is
// ready to use. A Group must not be copied after first use.
type Group struct {
	wg sync.WaitGroup
}

// Go runs f on a new goroutine that Wait joins.
func (g *Group) Go(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		f()
	}()
}

// Wait blocks until every f passed to Go has returned.
func (g *Group) Wait() { g.wg.Wait() }
