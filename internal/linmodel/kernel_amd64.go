package linmodel

// The AVX2 kernel: FitLogisticFlat's passes A to C, four rows or four columns
// per instruction, in kernel_amd64.s. Each lane performs the Go loops'
// operations in their order, so the fitted bits do not depend on which
// kernel ran.

// haveAVX2 reports whether this machine runs the AVX2 kernel bit for bit with
// the Go loops. It is decided once: the CPU must have the instructions, and
// math.Exp must take the FMA branch the kernel copies, which it does exactly
// when the CPU has AVX and FMA — unless GODEBUG turns either off, which is
// why a probe compares the two residual passes as well.
var haveAVX2 = cpuHasAVX2FMA() && residualProbeAgrees()

// useAVX2 selects FitLogisticFlat's kernel. Only tests change it, to keep the
// Go loops covered on machines that have AVX2.
var useAVX2 = haveAVX2

// logitsAVX2 is pass A: e[i] = (sum_j w[j]*Z[i][j], j ascending from +0) + b
// for every row of zc, which holds Z column-major with columns of len(e)
// rows, len(e) a multiple of 16.
//
//go:noescape
func logitsAVX2(e, zc, w []float64, b float64)

// residualsAVX2 is pass B over whole blocks of four rows from the start of e,
// stopping at the first block with a logit z where -|z| is outside [-700, 0]
// (NaN, ±Inf, |z| > 700): it returns how many rows it did, with gb and mag
// advanced by their residuals and magnitudes in row order. len(y) and
// len(sw) are at least len(e).
//
//go:noescape
func residualsAVX2(e, y, sw []float64, gb, mag float64) (rows int, gbSum, magSum float64)

// gradientAVX2 is pass C: gw[j] = sum_i e[i]*Z[i][j], i ascending from +0,
// for every column of zp, which holds Z row-major with rows of len(gw)
// columns, len(gw) a multiple of 16.
//
//go:noescape
func gradientAVX2(gw, zp, e []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// cpuHasAVX2FMA reads CPUID the way internal/cpu does for math's useFMA:
// AVX, FMA and OSXSAVE (leaf 1 ECX bits 28, 12, 27), the OS saving the XMM
// and YMM state (XCR0 bits 1 and 2), and AVX2 (leaf 7 EBX bit 5).
func cpuHasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const avx, fma, osxsave = 1 << 28, 1 << 12, 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&(avx|fma|osxsave) != avx|fma|osxsave {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// residualProbeAgrees runs pass B both ways over logits spread across the
// vector domain and reports whether every bit agrees; math.Exp's non-FMA
// branch rounds differently on some of them.
func residualProbeAgrees() bool {
	var vec, ref, y, sw [256]float64
	for i := range vec {
		vec[i] = (float64(i) - 128.5) * 5.4321
		y[i] = float64(i & 1)
		sw[i] = 0.75 + float64(i%3)
	}
	ref = vec
	rows, gbV, magV := residualsAVX2(vec[:], y[:], sw[:], 0, 0)
	gbR, magR := residuals(ref[:], y[:], sw[:], 0, 0)
	return rows == len(vec) && vec == ref && gbV == gbR && magV == magR
}

// layoutAVX2 copies the standardized matrix s.z (n x d, row-major) into the
// layouts passes A and C read — s.zc column-major over rows rounded up to 16,
// s.zp row-major over columns rounded up to 16, the padding zero — and sizes
// s.e and s.gw to the padded counts.
func (s *LogisticScratch) layoutAVX2(n, d int) {
	rows, cols := (n+15)&^15, (d+15)&^15
	s.zc, s.zp = grow(s.zc, rows*d), grow(s.zp, n*cols)
	s.e, s.gw = grow(s.e, rows), grow(s.gw, cols)
	for i := 0; i < n; i++ {
		zrow, prow := s.z[i*d:i*d+d], s.zp[i*cols:i*cols+cols]
		copy(prow, zrow)
		clear(prow[d:])
		for j, v := range zrow {
			s.zc[j*rows+i] = v
		}
	}
	for j := 0; j < d; j++ {
		clear(s.zc[j*rows+n : j*rows+rows])
	}
}

// passesAVX2 is one gradient step's passes A to C on the layouts layoutAVX2
// built: the weighted residuals land in s.e[:n], the raw gradient in
// s.gw[:d], and gb and mag are returned.
func (s *LogisticScratch) passesAVX2(w []float64, b float64, y []float64) (gb, mag float64) {
	n := len(y)
	logitsAVX2(s.e, s.zc, w, b)
	gb, mag = residualsVec(s.e[:n], y, s.sw[:n])
	gradientAVX2(s.gw, s.zp, s.e[:n])
	return gb, mag
}

// residualsVec is pass B over all of e, residualsAVX2 wherever it applies and
// the Go loop on the blocks it declines and on the last len(e)%4 rows.
func residualsVec(e, y, sw []float64) (gb, mag float64) {
	for i := 0; i < len(e); {
		var rows int
		rows, gb, mag = residualsAVX2(e[i:], y[i:], sw[i:], gb, mag)
		i += rows
		end := min(i+4, len(e))
		gb, mag = residuals(e[i:end], y[i:end], sw[i:end], gb, mag)
		i = end
	}
	return gb, mag
}
