// Package outputunscoped holds map-order emission the determinism
// analyzer would flag in an output package, loaded under an import path
// outside both of its rule sets: the analyzer must stay silent.
package outputunscoped

import (
	"fmt"
	"io"
)

func dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}
