package obs

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sampleLine matches a Prometheus text-format sample:
// metric_name{label="v",...} value
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

func buildTestRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("vadalog_test_ops_total", `kind="a"`, "Test operations.")
	c.Add(3)
	r.Counter("vadalog_test_ops_total", `kind="b"`, "Test operations.").Add(1)
	g := r.Gauge("vadalog_test_depth", "", "Test depth.")
	g.Set(-2)
	r.GaugeFunc("vadalog_test_lag_seconds", "", "Test lag.", func() float64 { return 1.5 })
	r.CounterFunc("vadalog_test_kept_total", "", "Test count kept elsewhere.", func() uint64 { return 7 })
	h := r.Histogram("vadalog_test_latency_seconds", "", "Test latency.", Seconds, []int64{1_000_000, 10_000_000})
	h.Observe(500_000)   // 0.5ms -> bucket le=0.001
	h.Observe(2_000_000) // 2ms   -> bucket le=0.01
	h.Observe(99_000_000)
	return r
}

// TestPrometheusConformance validates the exposition output line by
// line: HELP/TYPE ordering, sample syntax, cumulative buckets, and
// _count == +Inf bucket.
func TestPrometheusConformance(t *testing.T) {
	var sb strings.Builder
	if err := buildTestRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	seenType := map[string]string{}
	var lastFamily string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			lastFamily = parts[0]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if parts[0] != lastFamily {
				t.Fatalf("TYPE for %q does not follow its HELP (last HELP %q)", parts[0], lastFamily)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("invalid metric type %q", parts[1])
			}
			seenType[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("sample line does not match exposition syntax: %q", line)
		}
		// Every sample must belong to the family announced by the
		// preceding HELP/TYPE block.
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base != lastFamily && name != lastFamily {
			t.Fatalf("sample %q outside its family block %q", name, lastFamily)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"vadalog_test_ops_total", "vadalog_test_depth", "vadalog_test_lag_seconds", "vadalog_test_kept_total", "vadalog_test_latency_seconds"} {
		if _, ok := seenType[fam]; !ok {
			t.Fatalf("family %s missing TYPE line", fam)
		}
	}
	if seenType["vadalog_test_latency_seconds"] != "histogram" {
		t.Fatalf("latency family type = %q", seenType["vadalog_test_latency_seconds"])
	}
	if seenType["vadalog_test_kept_total"] != "counter" {
		t.Fatalf("counter func family type = %q", seenType["vadalog_test_kept_total"])
	}

	// Histogram semantics: cumulative buckets, +Inf present, _count
	// equals the +Inf bucket.
	buckets := map[string]uint64{}
	var count uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "vadalog_test_latency_seconds_bucket{") {
			le := line[strings.Index(line, `le="`)+4 : strings.Index(line, `"}`)]
			v, err := strconv.ParseUint(line[strings.Index(line, "} ")+2:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			buckets[le] = v
		}
		if strings.HasPrefix(line, "vadalog_test_latency_seconds_count ") {
			count, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		}
	}
	if buckets["0.001"] != 1 || buckets["0.01"] != 2 || buckets["+Inf"] != 3 {
		t.Fatalf("cumulative buckets wrong: %v", buckets)
	}
	if count != 3 {
		t.Fatalf("_count = %d, want 3", count)
	}

	// Scaled sum: (0.5 + 2 + 99) ms = 0.1015 s.
	if !strings.Contains(out, "vadalog_test_latency_seconds_sum 0.1015") {
		t.Fatalf("scaled _sum missing:\n%s", out)
	}
	// Counter series with labels render as name{labels} value.
	if !strings.Contains(out, `vadalog_test_ops_total{kind="a"} 3`) {
		t.Fatalf("labeled counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, "vadalog_test_lag_seconds 1.5") {
		t.Fatalf("gauge func sample missing:\n%s", out)
	}
	if !strings.Contains(out, "vadalog_test_kept_total 7") {
		t.Fatalf("counter func sample missing:\n%s", out)
	}
}
