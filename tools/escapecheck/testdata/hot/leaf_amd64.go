package hot

// leaf returns v; it is an assembly leaf with no Go body.
func leaf(v float64) float64
