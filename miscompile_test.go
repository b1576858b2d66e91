package repro

// Reduced regression tests for known miscompiles (ROADMAP item 1). Each
// case is named for the legality rule that was broken, and pins the
// compiler's contract on it: every listed option set, on both engines at
// p=1 and p=4, exits with what unoptimized scalar code exits with.

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/titan"
)

var miscompileCases = []struct {
	name string
	src  string
	opts []driver.Options
}{
	{
		// The step of t = t + step must be invariant in the loop before
		// t becomes t.0 + step·k; a step that reads the DO index is not.
		name: "ivsub-index-dependent-step",
		src: `
int main(void)
{
	int i, t;
	t = 1;
	for (i = 0; i < 10; i++)
		t = t + (i & 3) * 3;
	return t;
}
`,
		opts: []driver.Options{driver.ScalarOptions(), driver.FullOptions()},
	},
}

func TestMiscompile(t *testing.T) {
	for _, tc := range miscompileCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := driver.Run(tc.src, driver.Options{OptLevel: 0}, 1)
			if err != nil {
				t.Fatalf("-O0: %v", err)
			}
			for _, opts := range tc.opts {
				res, err := driver.Compile(tc.src, opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				for _, procs := range []int{1, 4} {
					fast, errF := titan.NewMachine(res.Machine, procs).Run("main")
					ref, errR := titan.NewMachine(res.Machine, procs).RunReference("main")
					if errF != nil || errR != nil {
						t.Fatalf("p=%d: engine err %v, reference err %v", procs, errF, errR)
					}
					if fast.ExitCode != want.ExitCode || fast.Output != want.Output {
						t.Errorf("vectorize=%v p=%d engine: exit %d output %q, -O0 gives exit %d output %q",
							opts.Vectorize, procs, fast.ExitCode, fast.Output, want.ExitCode, want.Output)
					}
					if ref.ExitCode != want.ExitCode || ref.Output != want.Output {
						t.Errorf("vectorize=%v p=%d reference: exit %d output %q, -O0 gives exit %d output %q",
							opts.Vectorize, procs, ref.ExitCode, ref.Output, want.ExitCode, want.Output)
					}
				}
			}
		})
	}
}
