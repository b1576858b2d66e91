package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRunObjectGolden pins the run object titand answers, as JSON values
// without the host-dependent host_nanos: a vector doall at two
// processors, two DOACROSS programs at four (per-processor rows;
// lagrec3's waits stall, wavefront's distance-32 waits do not), a masked
// kernel at four (mask counters) and a scalar compile that never forks
// (no procs). Regenerate after an intentional change with
//
//	UPDATE_GOLDEN=1 go test -run TestRunObjectGolden ./internal/service
func TestRunObjectGolden(t *testing.T) {
	cases := []struct {
		name, file string
		opts       CompileOptions
		procs      int
	}{
		{"daxpy-p2", "../../testdata/daxpy.c", fullOpts(), 2},
		{"wavefront-p4", "../../benchmark/programs/wavefront.c", fullOpts(), 4},
		{"lagrec3-p4", "../../benchmark/programs/lagrec3.c", fullOpts(), 4},
		{"clip-p4", "../../testdata/clip.c", fullOpts(), 4},
		{"daxpy-scalar", "../../testdata/daxpy.c", CompileOptions{}, 1},
	}
	_, ts := newTestServer(t, Config{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatal(err)
			}
			_, raw := postRaw(t, ts.URL+"/compile", CompileRequest{Source: string(src), Options: c.opts, Processors: c.procs})
			var reply struct {
				Run map[string]any `json:"run"`
			}
			if err := json.Unmarshal(raw, &reply); err != nil {
				t.Fatal(err)
			}
			delete(reply.Run, "host_nanos")
			path := filepath.Join("testdata", "run", c.name+".golden.json")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				out, err := json.MarshalIndent(reply.Run, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
			}
			var want map[string]any
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reply.Run, want) {
				t.Errorf("run object differs from %s\n got  %v\n want %v", path, reply.Run, want)
			}
		})
	}
}
