//go:build !amd64

package hot

// leaf returns v. Off amd64 it has a Go body, so it is annotated.
//
// abft:hotpath
func leaf(v float64) float64 { return v }
