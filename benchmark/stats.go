package main

import (
	"math"
	"slices"
	"time"
)

// windows is how many equal slices the timed window is cut into;
// throughput and the medians are the median over the slices, so one
// slice stalled by the host moves them little.
const windows = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// sorting xs in place; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latency summarises one op class of a load window.
type latency struct {
	p50, p99 float64 // µs
	n        int     // samples
}

// summary is the end-to-end view of one load window.
type summary struct {
	throughput  float64 // ops/s, median over the window's slices
	rates       []float64
	read, write latency
}

// summarize computes throughput as the median of the per-slice rates
// and each p50 as the median of the per-slice p50s. A p99 is the median
// of the per-slice p99s when every slice holds at least minTail
// samples (ten beyond its p99); otherwise it is taken over the whole
// window, where it has the most samples beyond it.
func summarize(r loadResult) summary {
	slice := r.elapsed / windows
	rates := make([]float64, windows)
	perRead := make([][]float64, windows)
	perWrite := make([][]float64, windows)
	for _, s := range r.samples {
		i := min(int(s.end/slice), windows-1)
		rates[i]++
		if s.write {
			perWrite[i] = append(perWrite[i], us(s.lat))
		} else {
			perRead[i] = append(perRead[i], us(s.lat))
		}
	}
	for i := range rates {
		rates[i] /= slice.Seconds()
	}
	return summary{throughput: median(rates), rates: rates, read: sliced(perRead), write: sliced(perWrite)}
}

// minTail is the fewest samples a slice needs for its own p99.
const minTail = 1000

func sliced(per [][]float64) latency {
	var all, p50s, p99s []float64
	thin := false
	for _, xs := range per {
		all = append(all, xs...)
		thin = thin || len(xs) < minTail
		if len(xs) > 0 {
			p50s = append(p50s, percentile(xs, 0.5))
			p99s = append(p99s, percentile(xs, 0.99))
		}
	}
	l := latency{p50: median(p50s), p99: median(p99s), n: len(all)}
	if thin {
		l.p99 = percentile(all, 0.99)
	}
	return l
}
