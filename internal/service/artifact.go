package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/pass"
)

// artifact is the stored form of a compile result: exactly the cached
// fields of CompileResponse, in its wire order and with its tags, so
// the JSON of an artifact is a CompileResponse reply missing only its
// per-request stamp. The bytes in every cache tier are response-ready —
// a hit splices the stamp on and never decodes them. The struct must
// mirror the head of CompileResponse field for field (a test compares
// them by reflection).
type artifact struct {
	Key    string       `json:"key"`
	IL     string       `json:"il"`
	Asm    string       `json:"asm"`
	Report *pass.Report `json:"report"`
	Run    *RunResult   `json:"run,omitempty"`
}

// appendStamp appends the per-request tail of a reply — what follows an
// artifact's last cached field, through the object's closing brace — in
// the bytes encoding/json produces for CompileResponse's stamped
// fields. tier is TierNone (omitted, like omitempty) or one of the Tier
// constants, which need no escaping.
func appendStamp(dst []byte, cached bool, tier string, elapsedNS int64) []byte {
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	if tier != TierNone {
		dst = append(dst, `,"cache_tier":"`...)
		dst = append(dst, tier...)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"elapsed_ns":`...)
	dst = strconv.AppendInt(dst, elapsedNS, 10)
	return append(dst, '}')
}

// appendStamped appends the reply object for a stored artifact: blob
// minus its closing brace, then the stamp. The result equals
// json.Marshal of the CompileResponse the blob and stamp describe.
func appendStamped(dst, blob []byte, cached bool, tier string, elapsedNS int64) []byte {
	return appendStamp(append(dst, blob[:len(blob)-1]...), cached, tier, elapsedNS)
}

// stampCap holds the longest stamp (false, "inflight", a 20-character
// int64) plus the reply's trailing newline.
const stampCap = 80

// respondArtifact writes a stored artifact as the /compile reply: the
// blob up to its closing brace, then the stamp. No decode, no encode —
// the bytes were validated when they entered the cache (checkArtifact).
func (s *Server) respondArtifact(w http.ResponseWriter, blob []byte, start time.Time, cached bool, tier string) {
	elapsed := time.Since(start)
	s.metrics.observe(elapsed)
	// The newline keeps the body what json.Encoder used to write.
	stamp := append(appendStamp(make([]byte, 0, stampCap), cached, tier, elapsed.Nanoseconds()), '\n')
	body := blob[:len(blob)-1]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+len(stamp)))
	w.WriteHeader(http.StatusOK)
	// Write errors are dropped: they mean the client went away, and
	// there is no one left to tell.
	w.Write(body)
	w.Write(stamp)
}

// checkArtifact is the artifact kind's ingest gate, for bytes this
// process did not produce itself (a peer's PUT /cache/{key}, a peer's
// answer to a fetch). Because hits splice a stamp onto the stored bytes unread, the
// bytes must be a lone JSON object of the artifact shape and nothing
// else: no unknown fields (an old-shape blob carrying "cached" would
// otherwise reach a client with duplicate keys), the embedded key equal
// to the well-formed key it is stored under (a peer cannot poison key K
// with artifact K′, and the object has a member for the stamp's comma
// to follow), and the closing brace as the very last byte.
func checkArtifact(key string, blob []byte) error {
	if !validKey(key) {
		return fmt.Errorf("malformed cache key %q", key)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var art artifact
	if err := dec.Decode(&art); err != nil {
		return fmt.Errorf("artifact does not decode: %w", err)
	}
	if art.Key != key {
		return fmt.Errorf("artifact key %q does not match requested key %q", art.Key, key)
	}
	// Only an object can have set the (non-empty) key, so a decoder that
	// stopped at the last byte stopped on the object's closing brace.
	if dec.InputOffset() != int64(len(blob)) {
		return errors.New("artifact has trailing bytes after its closing brace")
	}
	return nil
}
