package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test holds the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and that no request failed or got a wrong answer.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep, _, err := run(config{workload: w.Name, seed: 7, seconds: 1, trace: trace, scale: 0.02, calibration: "calibration.json"})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d requests failed", w.Name, trace, rep.Failed, rep.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestSeedFixesInputs checks that a seed fixes the churn schedule and
// that another seed changes it.
func TestSeedFixesInputs(t *testing.T) {
	schedule := func(seed int64) []schedOp {
		b := newBench(config{workload: "churn", seed: seed, seconds: 1, scale: 0.02})
		b.load(20_000)
		s, _ := b.churnSchedule()
		return s
	}
	a, b, c := schedule(3), schedule(3), schedule(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 3 gave two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
}
