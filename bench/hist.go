package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a log-linear histogram of non-negative int64 samples with 128
// sub-buckets per power of two: a reported quantile is within 1/128 (<1 %)
// of the true sample. Record is safe from many goroutines.
type hist struct {
	b [histBuckets]atomic.Int64
	n atomic.Int64
}

const (
	histSub     = 128
	histBuckets = histSub + (64-7)*histSub
)

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := int(v)
	if v >= histSub {
		exp := bits.Len64(uint64(v)) - 8
		idx = histSub + exp*histSub + int(v>>uint(exp)) - histSub
	}
	h.b[idx].Add(1)
	h.n.Add(1)
}

func (h *hist) count() int64 { return h.n.Load() }

// quantile returns the midpoint of the bucket holding the q-quantile
// sample, 0 on an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen > rank {
			if i < histSub {
				return float64(i)
			}
			exp := uint((i - histSub) / histSub)
			lo := int64(histSub+(i-histSub)%histSub) << exp
			return float64(lo) + float64(int64(1)<<exp)/2
		}
	}
	return 0
}

// quartiles returns the median and the first and third quartile of xs
// (linear interpolation between order statistics; q1 = q3 = median for
// fewer than two samples).
func quartiles(xs []float64) (med, q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.5), at(0.25), at(0.75)
}
