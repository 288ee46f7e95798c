// Command bench is the repository's performance record: an end-to-end
// benchmark of the real vadalogd binary over HTTP, with a per-layer
// ladder of in-process replays beneath it. See README.md.
//
// Usage (through run.sh, which builds both binaries first):
//
//	bash bench/run.sh --workload tc.point-read --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                 # every workload, untraced and traced
//	bash bench/run.sh --selfcheck     # the full set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/bench/gen"
)

// warmup precedes every timed window: plan and view caches fill, the
// daemon's heap reaches its working size, the connections are open.
const warmup = 1500 * time.Millisecond

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all of "+fmt.Sprint(gen.Names)+")")
		seed       = flag.Int64("seed", 1, "generator seed: same seed, same inputs")
		seconds    = flag.Int("seconds", 15, "length of the timed window")
		trace      = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced single-client ladder, per-layer metrics")
		daemonBin  = flag.String("daemon", "", "path of the vadalogd binary under test (run.sh builds it)")
		outDir     = flag.String("out", "bench/out", "directory for result.json, trace files, daemon logs and scratch data")
		selfcheck  = flag.Bool("selfcheck", false, "run the full set twice and fail if the two disagree beyond BENCHMARK.json's bounds")
		manifestAt = flag.String("manifest", "BENCHMARK.json", "benchmark manifest (bounds for -selfcheck)")
	)
	flag.Parse()
	if *daemonBin == "" {
		fatal(fmt.Errorf("-daemon is required: run this benchmark through bench/run.sh"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	abs, err := filepath.Abs(*outDir)
	if err != nil {
		fatal(err)
	}
	r := &runner{cfg: config{
		daemonBin: *daemonBin, outDir: abs, size: gen.Reference(), seed: *seed,
		window: time.Duration(*seconds) * time.Second, warmup: warmup,
	}}
	// A signal must not leave a daemon or a data directory behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		r.close()
		os.Exit(1)
	}()

	var ok bool
	switch {
	case *selfcheck:
		ok, err = r.selfCheck(*manifestAt)
	case *workload == "":
		var set *resultSet
		if set, err = r.runAll(); err == nil {
			ok = set.ok()
			err = set.write(filepath.Join(abs, "result.json"))
		}
	default:
		ok, err = r.runOne(*workload, *trace == 1)
	}
	r.close()
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metric is one named number with its unit, as the result line carries
// it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne is the one-workload mode: one untraced or one traced run,
// every metric printed by name and unit, the JSON line last.
func (r *runner) runOne(name string, traced bool) (bool, error) {
	var line resultLine
	if traced {
		res, err := r.trace(name)
		if err != nil {
			return false, err
		}
		res.print(os.Stdout)
		line = resultLine{res.Failed == 0, res.Attempted, res.Failed, res.metrics()}
	} else {
		res, err := r.run(name)
		if err != nil {
			return false, err
		}
		res.print(os.Stdout)
		line = resultLine{res.Failed == 0, res.Attempted, res.Failed, res.metrics()}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", b)
	return line.Correct, nil
}
