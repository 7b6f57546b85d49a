package obs

import (
	"encoding/json"
	"io"
)

// Export streams the counters in map iteration order: the seeded
// determinism bug (map-range into a JSON emit without a sort).
func (r *Registry) Export(w io.Writer) error {
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.counters {
		if err := enc.Encode(map[string]int64{name: v}); err != nil {
			return err
		}
	}
	return nil
}
