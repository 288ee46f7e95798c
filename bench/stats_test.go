package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g", got)
	}
}

// The tail percentile is the highest with at least ten samples beyond
// it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false},
		{40, 75, true},   // 10 beyond p75
		{99, 75, true},   // p90 would leave 9
		{100, 90, true},  // exactly 10 beyond p90
		{199, 90, true},  // p95 would leave 9
		{200, 95, true},  // exactly 10 beyond p95
		{999, 95, true},  // p99 would leave 9
		{1000, 99, true}, // exactly 10 beyond p99
		{9999, 99, true}, // p99.9 would leave 9
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%g leaves only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarizePrintsCounts(t *testing.T) {
	ms := make([]float64, 250)
	for i := range ms {
		ms[i] = float64(250 - i)
	}
	l := summarize(ms)
	if l.N != 250 || l.P50 != 125 || l.P95 != 238 || l.TailP != 95 || l.Tail != 238 {
		t.Errorf("summarize = %+v", *l)
	}
	if summarize(nil) != nil {
		t.Error("no samples must give nil, not zeros")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
