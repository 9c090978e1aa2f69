package main

import (
	"math"
	"sort"

	"tango/internal/core"
)

// digest is an FNV-1a hash of every simulated output of an episode. Two
// runs of the same inputs must produce the same digest, traced or not.
type digest uint64

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (d *digest) u64(v uint64) {
	if *d == 0 {
		*d = fnvOffset
	}
	for i := 0; i < 8; i++ {
		*d ^= digest(v & 0xff)
		*d *= fnvPrime
		v >>= 8
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) int(v int)     { d.u64(uint64(v)) }

// stepStats folds one step record, bucket by bucket, into the digest.
func (d *digest) stepStats(st core.StepStats) {
	d.int(st.Step)
	for _, v := range []float64{st.Start, st.IOTime, st.BaseTime, st.Bytes, st.SlowBW, st.Predicted, st.Degree, st.CacheHitBytes} {
		d.f64(v)
	}
	d.int(st.Cursor)
	d.int(st.Retries)
	d.int(st.CacheHits)
	d.int(st.CacheMisses)
	if st.Degraded {
		d.int(1)
	}
	for _, b := range st.Buckets {
		d.f64(b.Bound)
		d.int(b.From)
		d.int(b.To)
		d.int(b.Weight)
		d.f64(b.Start)
		d.f64(b.Elapsed)
	}
}

// layerMap folds a metric map into the digest in key order, leaving
// out the key skip.
func (d *digest) layerMap(m map[string]float64, skip string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, c := range []byte(k) {
			d.u64(uint64(c))
		}
		d.f64(m[k])
	}
}

// quantile returns the q-quantile of sorted xs by the nearest-rank rule
// (0 for no samples).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
