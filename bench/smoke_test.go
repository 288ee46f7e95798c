package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/bench/gen"
)

// TestSmoke drives all four workloads end to end — real daemon
// subprocess, untraced window, traced ladder, SIGKILL recovery — at a
// 1 s window on tiny data, so the benchmark cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("SKIPPED: the whole smoke run (4 workloads, untraced + traced): no go toolchain on PATH to build vadalogd")
	}
	bin := filepath.Join(t.TempDir(), "vadalogd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "repro/cmd/vadalogd").CombinedOutput(); err != nil {
		t.Fatalf("building vadalogd: %v\n%s", err, out)
	}
	r := &runner{cfg: config{
		daemonBin: bin, outDir: t.TempDir(), size: gen.Tiny(), seed: 1,
		window: time.Second, warmup: 200 * time.Millisecond,
	}}
	defer r.close()
	for _, name := range gen.Names {
		t.Run(name, func(t *testing.T) {
			res, err := r.run(name)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: %d of %d ops failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for k, m := range res.metrics() {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("untraced: %s = %v %s, want a positive number", k, m.Value, m.Unit)
				}
			}
			if durable := name == "tc.churn-durable"; durable != (res.RecoveryS != nil) || durable != (res.MaxLateMS != nil) {
				t.Errorf("recovery_s = %v, driver.max_late_ms = %v on %s", res.RecoveryS, res.MaxLateMS, name)
			}
			if (res.Read == nil) != (name == "iwarded.materialize") || (res.Write == nil) != (name == "tc.point-read" || name == "tc.bulk-scan") {
				t.Errorf("latency classes: read %v, write %v on %s", res.Read, res.Write, name)
			}

			tr, err := r.trace(name)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Failed != 0 || tr.Attempted == 0 {
				t.Fatalf("traced: %d of %d ops failed: %v", tr.Failed, tr.Attempted, tr.Failures)
			}
			var shares float64
			for _, l := range layers {
				shares += tr.Values[l+".share"]
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("traced: layer shares sum to %v, want 1", shares)
			}
			// (Self times may be negative — under -race the in-process rungs
			// run slower than the daemon they replay — but never absent.)
			if tr.Values["http.self_us_per_op"] == 0 || tr.Values["setup.incremental_ms"] <= 0 {
				t.Errorf("traced: http %v us/op, set-up incremental %v ms", tr.Values["http.self_us_per_op"], tr.Values["setup.incremental_ms"])
			}
			for _, m := range layerMetrics() {
				if _, ok := tr.metrics()[m[0]]; !ok {
					t.Errorf("traced: metric %s missing", m[0])
				}
			}
			if info, err := os.Stat(tr.TraceFile); err != nil || info.Size() == 0 {
				t.Errorf("traced: span file %s: %v", tr.TraceFile, err)
			}
		})
	}
}
