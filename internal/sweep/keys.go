package sweep

import (
	"fmt"
	"strconv"
	"strings"
)

// FamilyKey is the canonical cache key of a generated graph, the one key
// under which sweep trials (StoreProvider) and serve's /query resolution
// store BuildGraph's families in a corestore.Store. It names only what
// BuildGraph reads, so two specs that build the same graph share one key:
// m only for gnm (with its 4n default resolved), the seed for every family
// but the fixed cycle and complete graphs, and (k, eps) only for "far", so
// tester runs with different parameters share the same cached
// gnm/tree/cycle/complete graph.
func FamilyKey(gs GraphSpec, k int, eps float64, seed uint64) string {
	gs = gs.canonical()
	var b strings.Builder
	b.WriteString(gs.Family)
	b.WriteString("/n=")
	b.WriteString(strconv.Itoa(gs.N))
	if gs.M > 0 {
		b.WriteString("/m=")
		b.WriteString(strconv.Itoa(gs.M))
	}
	if gs.seeded() {
		b.WriteString("/seed=")
		b.WriteString(strconv.FormatUint(seed, 10))
	}
	if gs.Family == "far" {
		fmt.Fprintf(&b, "/k=%d/eps=%g", k, eps)
	}
	return b.String()
}
