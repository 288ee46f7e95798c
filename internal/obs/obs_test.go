package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", `k="a"`, "help")
	c2 := r.Counter("x_total", `k="a"`, "help")
	if c1 != c2 {
		t.Fatal("re-registering the same counter series returned a new metric")
	}
	c3 := r.Counter("x_total", `k="b"`, "help")
	if c3 == c1 {
		t.Fatal("distinct labels must be distinct series")
	}
	h1 := r.Histogram("h_seconds", "", "help", Seconds, LatencyBuckets)
	h2 := r.Histogram("h_seconds", "", "help", Seconds, LatencyBuckets)
	if h1 != h2 {
		t.Fatal("re-registering the same histogram returned a new metric")
	}
	r.CounterFunc("f_total", "", "help", func() uint64 { return 1 })
	r.CounterFunc("f_total", "", "help", func() uint64 { return 2 })
	if s := r.byName["f_total"].series; len(s) != 1 || s[0].cf() != 2 {
		t.Fatal("re-registering a counter func must replace its fn")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m", "", "help")
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "", "")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "", Units, []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 0, 1} // ≤10: {1,10}; ≤100: {11,100}; ≤1000: none; +Inf: {5000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.sum.Load(); got != 1+10+11+100+5000 {
		t.Fatalf("sum = %d", got)
	}
}

func TestEnabledGate(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if !Now().IsZero() {
		t.Fatal("Now() must be zero when disabled")
	}
	r := NewRegistry()
	h := r.Histogram("h", "", "", Seconds, LatencyBuckets)
	h.ObserveSince(time.Time{})
	if h.Count() != 0 {
		t.Fatal("ObserveSince(zero) must not record")
	}
	SetEnabled(true)
	t0 := Now()
	if t0.IsZero() {
		t.Fatal("Now() must be live when enabled")
	}
	h.ObserveSince(t0)
	if h.Count() != 1 {
		t.Fatal("ObserveSince(live) must record")
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// and checks exact count and sum. Run under -race -cpu 1,2,4 in CI.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", "", Units, RowsBuckets)
	c := r.Counter("c_total", "", "")
	g := r.Gauge("g", "", "")
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed + int64(i)%1000)
				c.Inc()
				g.Add(1)
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var wantSum int64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantSum += int64(w) + int64(i)%1000
		}
	}
	if got := h.sum.Load(); got != wantSum {
		t.Fatalf("sum = %d, want %d", got, wantSum)
	}
	if c.Load() != workers*perWorker {
		t.Fatalf("counter = %d", c.Load())
	}
	if g.Load() != workers*perWorker {
		t.Fatalf("gauge = %d", g.Load())
	}
}

// TestScrapeHookOncePerScrape: a scrape runs the hook once, before any
// series renders, so every scrape-time series reading the hook's snapshot
// shows the same value; setting the hook again replaces it.
func TestScrapeHookOncePerScrape(t *testing.T) {
	r := NewRegistry()
	runs, snap := 0, uint64(0)
	r.SetScrapeHook(func() { runs++; snap = uint64(10 * runs) })
	for _, name := range []string{"vadalog_test_a_total", "vadalog_test_b_total", "vadalog_test_c_total"} {
		r.CounterFunc(name, "", "Test snapshot read.", func() uint64 { return snap })
	}
	r.GaugeFunc("vadalog_test_d", "", "Test snapshot read.", func() float64 { return float64(snap) })
	for scrape := 1; scrape <= 2; scrape++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if runs != scrape {
			t.Fatalf("after %d scrapes the hook ran %d times", scrape, runs)
		}
		want := fmt.Sprintf(" %d\n", 10*scrape)
		if n := strings.Count(sb.String(), want); n != 4 {
			t.Fatalf("scrape %d: %d of 4 series read the snapshot:\n%s", scrape, n, sb.String())
		}
	}
	r.SetScrapeHook(func() { snap = 7 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if runs != 2 || strings.Count(sb.String(), " 7\n") != 4 {
		t.Fatalf("the replaced hook still ran (runs %d) or the new one did not:\n%s", runs, sb.String())
	}
}
