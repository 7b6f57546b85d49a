// Package obs is a deliberately buggy miniature of the real metrics
// registry; TestSeededBugs asserts the suite catches each seeded bug.
package obs

import "sync"

// Registry counts events.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{counters: map[string]int64{}}
}

// Inc is the disciplined path.
func (r *Registry) Inc(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name]++
}
