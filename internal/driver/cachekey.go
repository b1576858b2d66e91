// Cache-key canonicalization: the compile service's content-addressed
// artifact cache keys each compile by SHA-256 over the source text plus a
// canonical rendering of the Options. Canonical means two Options values
// that compile identically hash identically — attached catalogs are
// identified by content fingerprint and sorted, defaulted fields are
// resolved, and flags that cannot affect this compile (a vector length
// with vectorization off, catalogs with inlining off) are left out
// entirely.
package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/schedule"
)

// CacheKey returns the content-addressed identity of one compile: the
// SHA-256 hex digest over the source and the canonicalized options
// (including every attached catalog's content fingerprint). Two calls
// return equal keys exactly when Compile would produce identical
// artifacts for them.
func CacheKey(src string, opts Options) (string, error) {
	canon, err := canonicalOptions(opts)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "src:%d\n", len(src))
	io.WriteString(h, src)
	io.WriteString(h, canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalOptions renders opts in the canonical textual form CacheKey
// hashes. The encoding mirrors what the pipeline actually consumes
// (pass.BuildPipeline and the codegen scheduling rule), so semantically
// inert differences collapse:
//
//   - catalogs are replaced by their sorted, deduplicated content
//     fingerprints — attachment order and duplicate attachments don't
//     matter, and neither do catalogs when inlining is off;
//   - VL 0 renders as schedule.DefaultVL, and only when vectorizing;
//   - the scalar-optimizer knobs render only at OptLevel ≥ 1, and
//     induction-variable substitution renders as the derived on/off the
//     scalarizer actually sees (§6's "only when consumed" rule);
//   - NoAlias renders only when a dependence-analysis client runs;
//   - scheduling renders as the derived boolean codegen tests.
func canonicalOptions(opts Options) (string, error) {
	var sb strings.Builder
	sb.WriteString("opts/v1\n")

	optimize := opts.OptLevel >= 1
	strengthOn := opts.StrengthReduce && optimize
	fmt.Fprintf(&sb, "optimize=%t\n", optimize)

	fmt.Fprintf(&sb, "inline=%t\n", opts.Inline)
	if opts.Inline {
		fps := make([]string, 0, len(opts.Catalogs))
		for _, c := range opts.Catalogs {
			fp, err := c.Fingerprint()
			if err != nil {
				return "", fmt.Errorf("driver: fingerprinting attached catalog: %w", err)
			}
			fps = append(fps, fp)
		}
		sort.Strings(fps)
		fps = dedupSorted(fps)
		fmt.Fprintf(&sb, "catalogs=%s\n", strings.Join(fps, ","))
	}

	if optimize {
		fmt.Fprintf(&sb, "scalar.ivsub=%t\nscalar.straightforward=%t\n", opts.IVSub(), opts.Straightforward)
	}

	fmt.Fprintf(&sb, "parallelize=%t\n", opts.Parallelize)
	fmt.Fprintf(&sb, "vectorize=%t\n", opts.Vectorize)
	if opts.Vectorize {
		vl := opts.VL
		if vl <= 0 {
			vl = schedule.DefaultVL
		}
		fmt.Fprintf(&sb, "vl=%d\n", vl)
	}
	fmt.Fprintf(&sb, "listparallel=%t\n", opts.ListParallel)
	if opts.Vectorize || opts.Parallelize || strengthOn {
		fmt.Fprintf(&sb, "noalias=%t\n", opts.NoAlias)
	}
	fmt.Fprintf(&sb, "strength=%t\n", strengthOn)
	fmt.Fprintf(&sb, "schedule=%t\n", opts.ListSchedule())
	return sb.String(), nil
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
