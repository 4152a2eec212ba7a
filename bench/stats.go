package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"

	"repro/internal/core"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values, 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		logs[i] = math.Log(x)
	}
	return math.Exp(mean(logs))
}

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// the spreads printed here match an outside recomputation.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentiles are the candidates for a tail statistic, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it (p99 needs 1000 samples, p90 100, p50 20), and its
// nearest-rank value. Below 20 samples it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	pct = 50
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			pct = p
			break
		}
	}
	// The tolerance keeps float error in pct*n from skipping a rank.
	rank := max(1, int(math.Ceil(pct*float64(n)/100-1e-9)))
	return s[rank-1], pct
}

// canonical renders a report with its wall-clock fields zeroed and
// the plan-cache hit/miss split folded into one total. Those are the
// only fields that may differ between two runs of one configuration:
// which worker solves a shared key first is a scheduling artifact,
// the sum is not.
func canonical(r *core.Report) []byte {
	c := *r
	t := c.Timings
	t.TotalNS, t.FuzzNS, t.SymbolicNS, t.RollbackNS, t.VCDNS = 0, 0, 0, 0, 0
	t.Solve.BlastNS, t.Solve.CDCLNS = 0, 0
	c.Timings = t
	c.SolveCacheHits += c.SolveCacheMisses
	c.SolveCacheMisses = 0
	b, err := json.Marshal(&c)
	if err != nil {
		// A core.Report holds only plain data; failing to encode one is
		// a bug, not an input condition.
		panic(err)
	}
	return b
}

// sameReports reports whether two report lists are equal up to
// canonical.
func sameReports(a, b []*core.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] == nil || b[i] == nil || !bytes.Equal(canonical(a[i]), canonical(b[i])) {
			return false
		}
	}
	return true
}
