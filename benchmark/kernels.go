package main

import (
	"embed"
	"fmt"
)

// The twelve paper kernels live in programs/ as plain C. Each program
// initialises its arrays with small integers and dyadic fractions, calls
// its kernel repeatedly (the line marked /*KERNEL*/, at least 80% of the
// scalar cycles), and prints an integer checksum. Because every value is
// exactly representable in a float, the expected checksum below comes
// from plain Go arithmetic and never from the compiler under test.
//
//go:embed programs/*.c
var programFS embed.FS

// kernelMarker tags the kernel call line of every program.
const kernelMarker = "/*KERNEL*/"

type number interface{ ~float32 | ~float64 }

// kernel is one paper program and the Go mirror of its arithmetic. The
// mirror exists at both widths so a test can show that no intermediate
// value was ever rounded: float32 and float64 must agree.
type kernel struct {
	name     string
	mirror32 func() int
	mirror64 func() int
}

var kernels = []kernel{
	{"backsolve", mirrorBacksolve[float32], mirrorBacksolve[float64]},
	{"daxpy", mirrorDaxpy[float32], mirrorDaxpy[float64]},
	{"copyloop", mirrorCopyloop[float32], mirrorCopyloop[float64]},
	{"reverseaxpy", mirrorReverseAxpy[float32], mirrorReverseAxpy[float64]},
	{"vectoradd", mirrorVectorAdd[float32], mirrorVectorAdd[float64]},
	{"transform4x4", mirrorTransform[float32], mirrorTransform[float64]},
	{"lagrec3", mirrorLagrec[float32], mirrorLagrec[float64]},
	{"smooth8", mirrorSmooth[float32], mirrorSmooth[float64]},
	{"wavefront", mirrorWavefront[float32], mirrorWavefront[float64]},
	{"clip", mirrorClip[float32], mirrorClip[float64]},
	{"threshacc", mirrorThreshAcc[float32], mirrorThreshAcc[float64]},
	{"sparsesaxpy", mirrorSparseSaxpy[float32], mirrorSparseSaxpy[float64]},
}

func (k kernel) source() string {
	b, err := programFS.ReadFile("programs/" + k.name + ".c")
	if err != nil {
		panic(err) // the embed pattern and the table disagree: a bug in this file
	}
	return string(b)
}

// expectation is what a correct program prints and returns.
type expectation struct {
	exit   int64
	output string
}

// checksumExpectation is the convention every program here follows: print
// the checksum, return it modulo 251.
func checksumExpectation(chk int) expectation {
	return expectation{exit: int64(chk % 251), output: fmt.Sprintf("%d\n", chk)}
}

const checksumMod = 65521

func mirrorBacksolve[F number]() int {
	const n = 512
	var x, y, z [n]F
	for i := 0; i < n; i += 8 {
		for j := 0; j < 8; j++ {
			x[i+j], y[i+j], z[i+j] = 1, F(j), 1
		}
		z[i], z[i+4] = 2, 0.5
	}
	for r := 0; r < 16; r++ {
		for i := 0; i < n-2; i++ {
			x[i+1] = z[i] * (y[i] - x[i])
		}
	}
	chk := 0
	for i := range x {
		v := int(x[i] * 2)
		if v < 0 {
			v = -v
		}
		chk = (chk + v) % checksumMod
	}
	return chk
}

func mirrorDaxpy[F number]() int {
	const n = 512
	var a, b, c [n]F
	for i := range a {
		b[i], c[i] = F(i), F(n-i)
	}
	for r := 0; r < 12; r++ {
		for i := range a {
			a[i] = b[i] + 0.5*c[i]
		}
	}
	chk := 0
	for i := range a {
		chk = (chk + int(a[i]*2)) % checksumMod
	}
	return chk
}

func mirrorCopyloop[F number]() int {
	const n = 512
	var dst, src [n]F
	for i := range src {
		src[i] = F(i)
	}
	for r := 0; r < 20; r++ {
		copy(dst[:n-r], src[:n-r])
	}
	chk := 0
	for i := range dst {
		chk = (chk + int(dst[i])) % checksumMod
	}
	return chk
}

func mirrorReverseAxpy[F number]() int {
	const n = 512
	var a, b [n]F
	for i := range a {
		a[i], b[i] = 1, F(i)
	}
	for r := 0; r < 12; r++ {
		m := n - r
		for i, iv := 0, m-1; i < m; i, iv = i+1, iv-1 {
			a[iv] += b[i]
		}
	}
	chk := 0
	for i := range a {
		chk = (chk + int(a[i])) % checksumMod
	}
	return chk
}

func mirrorVectorAdd[F number]() int {
	const n = 512
	var a, b, c [n]F
	for i := range a {
		b[i], c[i] = F(i), 1
	}
	for r := 0; r < 12; r++ {
		for i := range a {
			a[i] = b[i]*2 + c[i] + a[i]
		}
	}
	chk := 0
	for i := range a {
		chk = (chk + int(a[i])) % checksumMod
	}
	return chk
}

func mirrorTransform[F number]() int {
	const n = 64
	var m [4][4]F
	m[0][1], m[1][2], m[2][3], m[3][0] = 1, 2, 0.5, 1
	var v [n][4]F
	for k := range v {
		for i := range v[k] {
			v[k][i] = F(k + 2*i)
		}
	}
	for r := 0; r < 4; r++ {
		for k := range v {
			var out [4]F
			for i := 0; i < 4; i++ {
				var s F
				for j := 0; j < 4; j++ {
					s += m[i][j] * v[k][j]
				}
				out[i] = s
			}
			v[k] = out
		}
	}
	chk := 0
	for k := range v {
		for i := range v[k] {
			chk = (chk + int(v[k][i]*2)*(i+1)) % checksumMod
		}
	}
	return chk
}

func mirrorLagrec[F number]() int {
	const n = 192
	var a, b, c, k [n]F
	for i := 0; i < n; i += 6 {
		for j := 0; j < 3; j++ {
			k[i+j], k[i+j+3] = 2, 0.5
		}
	}
	for i := range a {
		a[i], b[i], c[i] = F(i), F(2*(i&7)), 1.25
	}
	for r := 0; r < 12; r++ {
		for i := 3; i < n-3*r; i++ {
			a[i] = a[i-3]*k[i] + b[i]*c[i] + b[i]
		}
	}
	chk := 0
	for i := range a {
		chk = (chk + int(a[i]*4)) % checksumMod
	}
	return chk
}

func mirrorSmooth[F number]() int {
	const n = 256
	var a, b, c, k [n]F
	for i := 0; i < n; i += 16 {
		for j := 0; j < 8; j++ {
			k[i+j], k[i+j+8] = 0.5, 2
		}
	}
	for i := range a {
		a[i], b[i], c[i] = F(4*(i&15)), F(2*(i&3)), 1.5
	}
	for r := 0; r < 12; r++ {
		for i := 8; i < n-8*r; i++ {
			a[i] = (a[i-8] + b[i]*c[i]) * k[i]
		}
	}
	chk := 0
	for i := range a {
		chk = (chk + int(a[i]*4)) % checksumMod
	}
	return chk
}

func mirrorWavefront[F number]() int {
	const n = 256
	var a, b, c, k [n]F
	for i := 0; i < n; i += 64 {
		for j := 0; j < 32; j++ {
			k[i+j], k[i+j+32] = 2, 0.5
		}
	}
	for i := range a {
		a[i], b[i], c[i] = F(i&31), F(2*(i&7)), 1.5
	}
	for r := 0; r < 12; r++ {
		for i := 32; i < n-8*r; i++ {
			a[i] = a[i-32]*k[i] + b[i]*c[i] + c[i]*0.5
		}
	}
	chk := 0
	for i := range a {
		chk = (chk + int(a[i]*8)) % checksumMod
	}
	return chk
}

func mirrorClip[F number]() int {
	const n = 512
	var in, out [n]F
	for i := range in {
		in[i] = F(i) * 0.25
		out[i] = in[i]
	}
	for r := 0; r < 12; r++ {
		limit := 96 - 2.5*F(r)
		for i := range in {
			if in[i] > limit {
				out[i] = limit
			}
		}
	}
	chk := 0
	for i := range out {
		chk = (chk + int(out[i]*4)) % checksumMod
	}
	return chk
}

func mirrorThreshAcc[F number]() int {
	const n = 512
	var in, acc [n]F
	for i := range in {
		in[i], acc[i] = F(i&7)*0.5, 1
	}
	for r := 0; r < 12; r++ {
		t := 0.25 * F(r)
		for i := range in {
			if in[i] > t {
				acc[i] += in[i]
			}
		}
	}
	chk := 0
	for i := range acc {
		chk = (chk + int(acc[i]*2)) % checksumMod
	}
	return chk
}

func mirrorSparseSaxpy[F number]() int {
	const n = 512
	var x, y, m [n]F
	for i := range x {
		x[i], y[i] = F(i)*0.125, 1
	}
	for i := 0; i < n; i += 4 {
		m[i] = 1
	}
	for r := 0; r < 12; r++ {
		for i := range x {
			if m[i] != 0 {
				y[i] += 2 * x[i]
			}
		}
	}
	chk := 0
	for i := range y {
		chk = (chk + int(y[i]*4)) % checksumMod
	}
	return chk
}
