package linmodel

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
)

// checkResiduals runs pass B over logits z with the AVX2 kernel (and its Go
// fallback) and with the Go loop alone, and fails t unless the residuals, gb
// and mag agree bit for bit. It also holds the vector pass to its domain: a
// block of four is taken exactly when every |z| <= 700. It returns how many
// whole blocks the vector arm took and how many it declined.
func checkResiduals(t *testing.T, z, y, sw []float64) (vecBlocks, declined int) {
	t.Helper()
	vec := append([]float64(nil), z...)
	ref := append([]float64(nil), z...)
	gbV, magV := residualsVec(vec, y, sw)
	gbR, magR := residuals(ref, y, sw, 0, 0)
	for i := range z {
		if math.Float64bits(vec[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("row %d, z=%v (%#x) y=%v sw=%v: residual %v (%#x), Go loop %v (%#x)",
				i, z[i], math.Float64bits(z[i]), y[i], sw[i], vec[i], math.Float64bits(vec[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
	if math.Float64bits(gbV) != math.Float64bits(gbR) || math.Float64bits(magV) != math.Float64bits(magR) {
		t.Fatalf("%d rows: gb %v mag %v, Go loop gb %v mag %v", len(z), gbV, magV, gbR, magR)
	}
	for i := 0; i+4 <= len(z); i += 4 {
		block := append([]float64(nil), z[i:i+4]...)
		rows, _, _ := residualsAVX2(block, y[i:i+4], sw[i:i+4], 0, 0)
		in := true
		for _, v := range z[i : i+4] {
			in = in && math.Abs(v) <= 700
		}
		switch {
		case in && rows == 4:
			vecBlocks++
		case !in && rows == 0:
			declined++
		default:
			t.Fatalf("block %v: the vector pass did %d rows", z[i:i+4], rows)
		}
	}
	return vecBlocks, declined
}

// TestResidualKernelMatchesExp holds the vector pass B — Exp's FMA branch
// copied lane for lane, the sigmoid, the residual, the magnitude and the two
// row-order sums — to the Go loop over more than a million logits: uniform
// across and just past the vector domain, near zero, the domain's and Exp's
// edges, subnormals, infinities, NaN payloads and raw bit patterns, in runs
// of every length mod 4.
func TestResidualKernelMatchesExp(t *testing.T) {
	if !haveAVX2 {
		// A kernel that fails its own init probe falls back to the Go loops
		// silently; only a GODEBUG CPU override may do that on this CPU.
		if cpuHasAVX2FMA() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
			t.Fatal("the CPU has AVX2 and FMA but the init probe rejected the kernel")
		}
		t.Skip("no AVX2 kernel on this machine")
	}
	var edges []float64
	for _, v := range []float64{
		0, 5e-324, 1e-310, 0x1p-1022, 1e-300, 1e-8, 0.5, 1, 36.7, 37,
		699.99, math.Nextafter(700, 0), 700, math.Nextafter(700, 701),
		708.3, 708.4, 709.78, 745.1, 746, math.MaxFloat64, math.Inf(1),
	} {
		edges = append(edges, v, -v)
	}
	for _, bits := range []uint64{
		0x7ff8000000000000, 0xfff8000000000000, 0x7ff8000000000001, // quiet NaNs
		0x7ff0000000000001, 0xfff4000000000000, // signalling NaNs
		0x7fffffffffffffff, 0xffffffffffffffff,
	} {
		edges = append(edges, math.Float64frombits(bits))
	}
	weights := []float64{1, 0.55, 5.5, 1.7}

	rng := stats.NewRNG(20261015)
	z, y, sw := make([]float64, 300), make([]float64, 300), make([]float64, 300)
	var rows, vecBlocks, declined int
	for rows < 1<<20 {
		n := 1 + rng.Intn(len(z))
		for i := 0; i < n; i++ {
			switch k := rng.Intn(16); {
			case k == 0:
				z[i] = edges[rng.Intn(len(edges))]
			case k == 1:
				z[i] = math.Float64frombits(rng.Uint64())
			case k == 2:
				z[i] = rng.Uniform(-1e-6, 1e-6)
			default:
				z[i] = rng.Uniform(-720, 720)
			}
			y[i] = float64(rng.Intn(2))
			sw[i] = weights[rng.Intn(len(weights))]
		}
		v, d := checkResiduals(t, z[:n], y[:n], sw[:n])
		rows += n
		vecBlocks += v
		declined += d
	}
	t.Logf("%d logits: %d blocks of four on the vector arm, %d declined to the Go loop", rows, vecBlocks, declined)
	if vecBlocks < 10000 || declined < 10000 {
		t.Errorf("%d vector and %d declined blocks, want at least 10000 of each", vecBlocks, declined)
	}
}

// TestLogitGradientKernelsMatchGo holds passes A and C to the Go loops
// directly, over every shape up to 37 x 18 (each row and column count mod 16,
// one scratch reused so stale padding would show) with NaN, ±Inf and -0 on
// both sides of the products and sums. The NaN is the one x86 generates for
// Inf-Inf and 0*Inf, so every NaN in play has one payload: which operand's
// payload survives a meeting of two is not part of the contract (see
// kernel_amd64.s).
func TestLogitGradientKernelsMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 kernel on this machine")
	}
	special := []float64{math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	rng := stats.NewRNG(20261016)
	draw := func(v []float64) {
		for i := range v {
			if rng.Intn(8) == 0 {
				v[i] = special[rng.Intn(len(special))]
			} else {
				v[i] = rng.Normal(0, 1)
			}
		}
	}
	var s LogisticScratch
	for n := 1; n <= 37; n++ {
		for d := 1; d <= 18; d++ {
			Z, w, r := make([]float64, n*d), make([]float64, d), make([]float64, n)
			draw(Z)
			draw(w)
			draw(r)
			b := rng.Normal(0, 1)
			s.z = Z
			s.layoutAVX2(n, d)

			want := make([]float64, n)
			logits(want, Z, w, b)
			logitsAVX2(s.e, s.zc, w, b)
			if !sameBits(s.e[:n], want) {
				t.Fatalf("%dx%d: logits %v, Go loop %v", n, d, s.e[:n], want)
			}
			wantG := make([]float64, d)
			gradient(wantG, Z, r)
			gradientAVX2(s.gw, s.zp, r)
			if !sameBits(s.gw[:d], wantG) {
				t.Fatalf("%dx%d: gradient %v, Go loop %v", n, d, s.gw[:d], wantG)
			}
		}
	}
}

// FuzzResidualKernel: any four logits, labels and sample weights give the
// same bits through the vector pass B as through the Go loop.
func FuzzResidualKernel(f *testing.F) {
	b := math.Float64bits
	f.Add(b(0), b(math.Copysign(0, -1)), b(1.5), b(-2.25), uint8(0b0110), 1.0, 1.0, 0.55, 5.5)
	f.Add(b(699.99), b(-700), b(700.0000000000001), b(-708.4), uint8(0b1001), 1.0, 1.7, 1.0, 1.0)
	f.Add(b(746), b(math.Inf(-1)), b(math.NaN()), uint64(0x7ff0000000000001), uint8(0b1111), 2.0, 0.5, 1.0, 3.0)
	f.Add(b(5e-324), b(-1e-310), b(36.7), b(-37), uint8(0), 1.0, 1.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, z0, z1, z2, z3 uint64, labels uint8, sw0, sw1, sw2, sw3 float64) {
		if !haveAVX2 {
			t.Skip("no AVX2 kernel on this machine")
		}
		// FitLogisticFlat's sample weights are 1 or ratios of row counts; a
		// NaN one, beside another, would only pit two payloads in gb's sum.
		if math.IsNaN(sw0) || math.IsNaN(sw1) || math.IsNaN(sw2) || math.IsNaN(sw3) {
			t.Skip("NaN sample weight")
		}
		z := []float64{math.Float64frombits(z0), math.Float64frombits(z1), math.Float64frombits(z2), math.Float64frombits(z3)}
		y := make([]float64, 4)
		for i := range y {
			y[i] = float64(labels >> i & 1)
		}
		checkResiduals(t, z, y, []float64{sw0, sw1, sw2, sw3})
	})
}
