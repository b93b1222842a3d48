package main

import (
	"math"
	"sort"

	"harmonia/internal/metrics"
)

// quantileUS returns quantile q of h in microseconds, interpolated
// linearly inside the histogram's bucket. metrics.Histogram reports a
// quantile as its bucket's upper bound, and its buckets are 25% wide,
// so the bound alone would hide any change smaller than a bucket and
// read the same for every seed. The bucket's rank range is recovered
// by binary search over Quantile itself (a step function of the rank),
// and the value is placed between the previous occupied bucket's bound
// (or the minimum) and this bucket's bound by the rank's position.
// Quantiles inside the sub-microsecond bucket read as 0.
func quantileUS(h *metrics.Histogram, q float64) float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	n := h.Count()
	// at returns the histogram's value at integer rank k in [1, n].
	at := func(k uint64) float64 {
		return float64(h.Quantile((float64(k) + 0.5) / float64(n)))
	}
	rank := q * float64(n)
	k := uint64(math.Ceil(rank))
	k = max(1, min(k, n))
	v := at(k)
	if v <= 1e3 {
		// The histogram's first bucket holds everything under 1µs,
		// which in this simulator is all but always an exact 0 (a
		// phase the op never entered); read it as 0 rather than
		// inventing a value inside the bucket.
		return 0
	}
	// The bucket holding value v spans ranks [lo, hi].
	lo := uint64(sort.Search(int(n), func(i int) bool { return at(uint64(i)+1) >= v })) + 1
	hi := uint64(sort.Search(int(n), func(i int) bool { return at(uint64(i)+1) > v }))
	lower := float64(h.Min())
	if lo > 1 {
		lower = at(lo - 1)
	}
	frac := (rank - float64(lo-1)) / float64(hi-lo+1)
	frac = max(0, min(frac, 1))
	return (lower + (v-lower)*frac) / 1e3
}
