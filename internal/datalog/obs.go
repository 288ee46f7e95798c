package datalog

import "repro/internal/obs"

// Fixpoint effort counters, recorded once per Eval from the run's Stats —
// never on the probe hot loop, so the instrumented cost is a handful of
// atomic adds per evaluation.
var (
	obsFixpoints = obs.NewCounter("vadalog_fixpoints_total", "", "Completed fixpoint evaluations (including aborted ones).")
	obsRounds    = obs.NewCounter("vadalog_fixpoint_rounds_total", "", "Semi-naive fixpoint rounds across all evaluations.")
	obsDerived   = obs.NewCounter("vadalog_fixpoint_derived_total", "", "Facts derived by fixpoint evaluations.")
	obsProbes    = obs.NewCounter("vadalog_fixpoint_probes_total", "", "Index probe extensions during fixpoint joins.")
)

func recordFixpoint(s *Stats) {
	if !obs.On() {
		return
	}
	obsFixpoints.Inc()
	obsRounds.Add(uint64(s.Rounds))
	obsDerived.Add(uint64(s.Derived))
	obsProbes.Add(uint64(s.Probes))
}
