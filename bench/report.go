package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"repro/bench/gen"
)

// metrics are the end-to-end metrics BENCHMARK.json bounds. Every
// workload reports every one of them. p95 is printed and kept in
// result.json but is not among them: on the reference box its
// run-to-run spread (13% on two workloads) is more than a third of the
// widest bound the contract allows, so by the issue's rule it is a
// reported number, not a gate.
func (r *runResult) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":        {r.SetupS, "s"},
		"throughput_rps": {r.ThroughputRPS, "1/s"},
		"p50_ms":         {r.Primary.P50, "ms"},
		"peak_rss_mb":    {r.PeakRSSMB, "MB"},
	}
}

// print lists every number of the run by name and unit, sample counts
// beside the timings.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s (untraced, %d facts) ==\n", r.Workload, r.Facts)
	fmt.Fprintf(w, "%-28s %12d count\n", "ops_attempted", r.Attempted)
	fmt.Fprintf(w, "%-28s %12d count\n", "ops_failed", r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	fmt.Fprintf(w, "%-28s %12.4f s      (median of %d set-ups)\n", "setup_s", r.SetupS, r.SetupSamples)
	fmt.Fprintf(w, "%-28s %12.2f 1/s\n", "throughput_rps", r.ThroughputRPS)
	class := func(name string, l *latency) {
		if l == nil {
			fmt.Fprintf(w, "%-28s %12s\n", name+"_p50_ms", "null")
			return
		}
		fmt.Fprintf(w, "%-28s %12.4f ms     (n=%d)\n", name+"_p50_ms", l.P50, l.N)
		fmt.Fprintf(w, "%-28s %12.4f ms     (n=%d, %d beyond)\n", name+"_p95_ms", l.P95, l.N, beyond(l.N, 95))
		if l.TailP != 0 {
			fmt.Fprintf(w, "%-28s %12.4f ms     (p%g: highest percentile with >=10 samples beyond it)\n", name+"_tail_ms", l.Tail, l.TailP)
		}
	}
	class("primary", r.Primary)
	class("read", r.Read)
	class("write", r.Write)
	kinds := make([]string, 0, len(r.Kinds))
	for k := range r.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "%-28s %12.4f ms     (n=%d)\n", "kind."+k+".p50_ms", r.Kinds[k].P50, r.Kinds[k].N)
	}
	if r.RecoveryS != nil {
		fmt.Fprintf(w, "%-28s %12.4f s\n", "recovery_s", *r.RecoveryS)
	} else {
		fmt.Fprintf(w, "%-28s %12s\n", "recovery_s", "null")
	}
	fmt.Fprintf(w, "%-28s %12.2f MB     (daemon VmHWM over the window)\n", "peak_rss_mb", r.PeakRSSMB)
	fmt.Fprintf(w, "%-28s %12.2f MB     (daemon VmHWM when the window opens)\n", "setup_peak_rss_mb", r.SetupPeakRSSMB)
	if r.MaxLateMS != nil {
		fmt.Fprintf(w, "%-28s %12.4f ms\n", "driver.max_late_ms", *r.MaxLateMS)
	}
	fmt.Fprintf(w, "%-28s %12.4f s/kop\n", "daemon.cpu_s_per_kop", r.DaemonCPUPerOp)
	fmt.Fprintf(w, "%-28s %12.4f frac\n", "driver.cpu_frac", r.DriverCPUFrac)
}

// resultSet is result.json: every workload's untraced and traced
// result and the context they were measured in.
type resultSet struct {
	Context   map[string]any `json:"context"`
	Workloads []workloadRes  `json:"workloads"`
}

type workloadRes struct {
	Name     string       `json:"name"`
	Untraced *runResult   `json:"untraced"`
	Traced   *traceResult `json:"traced"`
}

func (s *resultSet) ok() bool {
	for _, w := range s.Workloads {
		if w.Untraced.Failed > 0 || w.Traced.Failed > 0 {
			return false
		}
	}
	return true
}

func (s *resultSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll measures every workload, untraced then traced.
func (r *runner) runAll() (*resultSet, error) {
	set := &resultSet{Context: r.context()}
	for _, name := range gen.Names {
		un, err := r.run(name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		un.print(os.Stdout)
		tr, err := r.trace(name)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", name, err)
		}
		tr.print(os.Stdout)
		set.Workloads = append(set.Workloads, workloadRes{name, un, tr})
	}
	return set, nil
}

// context records what the numbers depend on besides the code.
func (r *runner) context() map[string]any {
	return map[string]any{
		"go_version":     runtime.Version(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"commit":         commit(),
		"seed":           r.cfg.seed,
		"window_s":       r.cfg.window.Seconds(),
		"warmup_s":       r.cfg.warmup.Seconds(),
		"size":           r.cfg.size,
		"full_check_1in": fullCheckEvery,
		"instances":      instances,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit is the checkout's HEAD, or "unknown" outside a git checkout
// (the benchmark driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
