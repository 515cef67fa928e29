package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles the tail picker chooses among.
var tailCandidates = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it, so the reported tail is never the
// maximum of a handful of outliers. With fewer than twenty samples even
// the median does not qualify and it returns 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, safe from rounding
			best = p
		}
	}
	return best
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// midmean is the mean of the middle half of v (the interquartile mean):
// as deaf to outliers as the median, but it does not jump when v is split
// between two clusters.
func midmean(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	cut := len(s) / 4
	return sum(s[cut:len(s)-cut]) / float64(len(s)-2*cut)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// spread summarises a set of repeated values by their percentiles.
type spread struct {
	P10 float64 `json:"p10"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	P90 float64 `json:"p90"`
	N   int     `json:"n"`
}

func spreadOf(v []float64) spread {
	s := sortedCopy(v)
	return spread{P10: percentile(s, 10), P25: percentile(s, 25), P50: percentile(s, 50),
		P75: percentile(s, 75), P90: percentile(s, 90), N: len(s)}
}

// runSpread estimates, as a share of the median, how far a run's value (the
// median of these repeated values) moves between runs: the distance
// between their quartiles shrunk by the square root of their count, which
// is about the standard error of a median.
func (s spread) runSpread() float64 {
	if s.N == 0 || s.P50 == 0 {
		return 0
	}
	return (s.P75 - s.P25) / s.P50 / math.Sqrt(float64(s.N))
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
