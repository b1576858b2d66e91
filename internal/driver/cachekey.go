// Cache keys: the compile service's content-addressed artifact cache keys
// each compile by SHA-256 over the source text plus the canonical
// rendering of the plan the options resolve to (pass.Plan.Canonical). Two
// Options values that run the same plan — that differ only in a field the
// compile ignores, such as a vector length with vectorization off or
// catalogs with inlining off — hash identically.
package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// CacheKey returns the content-addressed identity of one compile: the
// SHA-256 hex digest over the source and the rendering of opts' plan
// (including every attached catalog's content fingerprint). Two calls
// return equal keys exactly when they compile the same source under equal
// plans.
func CacheKey(src string, opts Options) (string, error) {
	canon, err := opts.Plan().Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "src:%d\n", len(src))
	io.WriteString(h, src)
	io.WriteString(h, canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}
