package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRangeInvertsBucketOf(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		v := r.Uint64() >> uint(r.Intn(64))
		lo, w := bucketRange(bucketOf(v))
		if v < lo || v-lo >= w {
			t.Fatalf("v=%d landed in bucket [%d, %d+%d)", v, lo, lo, w)
		}
		if lo >= subCount && float64(w)/float64(lo) > 1.0/subCount {
			t.Fatalf("bucket at %d is %d wide, over 1/%d of its edge", lo, w, subCount)
		}
	}
	if got := bucketOf(math.MaxUint64); got >= numBuckets {
		t.Fatalf("MaxUint64 maps to bucket %d of %d", got, numBuckets)
	}
}

// TestQuantilesMatchSortedSamples checks the histogram against exact
// nearest-rank quantiles of the same samples: within 1% everywhere on
// latency-shaped (log-normal) and uniform data.
func TestQuantilesMatchSortedSamples(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gens := map[string]func() uint64{
		"lognormal": func() uint64 { return uint64(math.Exp(r.NormFloat64()*1.2 + 11)) },
		"uniform":   func() uint64 { return uint64(r.Intn(5_000_000)) + 1000 },
	}
	for name, gen := range gens {
		h := NewHist()
		xs := make([]uint64, 100000)
		sum := 0.0
		for i := range xs {
			xs[i] = gen()
			h.Observe(xs[i])
			sum += float64(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := float64(xs[int(math.Ceil(q*float64(len(xs))))-1])
			got := h.Quantile(q)
			if rel := math.Abs(got-exact) / exact; rel > 0.01 {
				t.Errorf("%s q=%v: histogram %.0f, exact %.0f (%.2f%% off)", name, q, got, exact, 100*rel)
			}
		}
		if mean := sum / float64(len(xs)); math.Abs(h.Mean()-mean) > 1e-6*mean {
			t.Errorf("%s: mean %f, exact %f", name, h.Mean(), mean)
		}
	}
}

func TestMergeEqualsSingleHistogram(t *testing.T) {
	a, b, all := NewHist(), NewHist(), NewHist()
	for v := uint64(1); v < 100000; v += 7 {
		all.Observe(v)
		if v%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) || a.Count() != all.Count() {
			t.Fatalf("q=%v: merged %v/%d, single %v/%d", q, a.Quantile(q), a.Count(), all.Quantile(q), all.Count())
		}
	}
}
