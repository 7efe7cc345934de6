package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: every power of two is split into
// 2^subBits equal buckets, so a bucket is at most 1/64 (1.6%) of its lower
// edge wide and a quantile reported at the bucket midpoint is within 0.8% of
// the true sample. The repository's obs.Histogram uses power-of-two buckets,
// whose p50 of identical runs jumps by a factor of two; this one can gate.
const subBits = 6

const subCount = 1 << subBits

// numBuckets covers the whole uint64 range.
const numBuckets = (64 - subBits + 1) * subCount

// Hist is a log-linear (HdrHistogram-style) histogram of nanosecond
// samples. It is owned by one goroutine; merge per-goroutine histograms with
// Merge once their goroutines have finished.
type Hist struct {
	counts   []uint64
	n        uint64
	sum      float64
	min, max uint64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: make([]uint64, numBuckets)} }

// bucketOf maps v to its bucket: values below subCount are exact, above
// that the top subBits+1 significant bits select the bucket.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>uint(shift)) - subCount
}

// bucketRange returns bucket i's half-open sample range [lo, lo+width).
func bucketRange(i int) (lo, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	shift := uint(i>>subBits - 1)
	return uint64(i%subCount+subCount) << shift, 1 << shift
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the exact mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) as the midpoint
// of the bucket holding it, clamped to the observed range. NaN when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, w := bucketRange(i)
			mid := float64(lo) + float64(w-1)/2
			return math.Min(math.Max(mid, float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

// latencies folds a run's per-segment histograms together. The end-to-end
// quantiles are the median over segments of each segment's quantile: a
// host stall (CPU steal) that spoils one or two seconds of a run moves them
// little, while a program change that shifts the distribution moves every
// segment alike. The merged histogram keeps the whole run for exact means.
type latencies struct {
	all      *Hist
	p50, p99 []float64
}

func newLatencies() *latencies { return &latencies{all: NewHist()} }

// add folds one segment's histogram in.
func (l *latencies) add(seg *Hist) {
	if seg.Count() == 0 {
		return
	}
	l.p50 = append(l.p50, seg.Quantile(0.50))
	l.p99 = append(l.p99, seg.Quantile(0.99))
	l.all.Merge(seg)
}

// quantilesUs returns the median segment p50 and p99 in microseconds.
func (l *latencies) quantilesUs() (p50, p99 float64) {
	return median(l.p50) / 1e3, median(l.p99) / 1e3
}
