package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestEveryWorkloadEmitsEveryMetric runs every workload of BENCHMARK.json
// in short mode, untraced and traced, and checks that each run is correct
// and emits exactly the declared metrics with their units. Run it with
// `go test .` from this directory.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	// The benchmark runs from the checkout root, where BENCHMARK.json is.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark defines %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i := range spec.PerLayer {
		if i < len(layerMetrics) {
			got, want := layerMetrics[i], spec.PerLayer[i]
			if got.name != want.Name || got.unit != want.Unit || got.better != want.Better {
				t.Errorf("per-layer metric %d: benchmark has %s/%s/%s, BENCHMARK.json %s/%s/%s",
					i, got.name, got.unit, got.better, want.Name, want.Unit, want.Better)
			}
		}
	}

	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range spec.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seconds", "1", "--trace", trace, "--short"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct=%t attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%v: metric %s missing or not in %s (%+v)", args, name, unit, got)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%v: undeclared metric %s", args, name)
				}
			}
		}
	}
}
