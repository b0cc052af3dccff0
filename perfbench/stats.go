package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// cellSeed derives a cell's simulation seed from the workload seed and
// the cell's shape (never its algorithm), so every algorithm in a row
// sees the same random inputs.
func cellSeed(workloadSeed uint64, shape string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(shape))
	z := workloadSeed*0x9e3779b97f4a7c15 ^ h.Sum64()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // seed 0 means "default" to the harness
	}
	return z
}

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between closest ranks. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tailPercentiles is the ladder cell_ms_tail picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile with at least ten
// of n samples beyond it (0 when n < 20).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// geomean returns the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}
