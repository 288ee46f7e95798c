package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/bench/gen"
)

// BENCHMARK.json is written by hand; the driver reads it and then holds
// the benchmark's output to it. This keeps the two from drifting.
func TestManifestMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("SKIPPED: manifest check: %v", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, gen.Names) {
		t.Errorf("workloads: manifest %v, generator %v", names, gen.Names)
	}
	res := runResult{Primary: &latency{}}
	e2e := res.metrics()
	if len(e2e) != len(m.EndToEnd) {
		t.Errorf("end_to_end: manifest lists %d metrics, an untraced run prints %d", len(m.EndToEnd), len(e2e))
	}
	for _, em := range m.EndToEnd {
		if got, ok := e2e[em.Name]; !ok || got.Unit != em.Unit {
			t.Errorf("end_to_end %s [%s]: the run prints %v", em.Name, em.Unit, got)
		}
	}
	var layer [][2]string
	for _, pm := range m.PerLayer {
		layer = append(layer, [2]string{pm.Name, pm.Unit})
	}
	if want := layerMetrics(); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer: manifest\n%v\ntraced run prints\n%v", layer, want)
	}
}
