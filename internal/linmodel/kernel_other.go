//go:build !amd64

package linmodel

// Off amd64 there is no vector kernel: FitLogisticFlat runs its Go loops.
const haveAVX2 = false

var useAVX2 = false

func (s *LogisticScratch) layoutAVX2(n, d int) {
	panic("linmodel: the AVX2 kernel exists only on amd64")
}

func (s *LogisticScratch) passesAVX2(w []float64, b float64, y []float64) (gb, mag float64) {
	panic("linmodel: the AVX2 kernel exists only on amd64")
}
