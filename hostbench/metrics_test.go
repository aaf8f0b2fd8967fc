package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json hostbench must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesFollowTheContract(t *testing.T) {
	if err := checkDefs(endToEnd, 16); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkDefs(layerMetrics(), 128); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	for _, w := range allWorkloads {
		if len(declaredLayers(w)) == 0 {
			t.Errorf("%s declares no per-layer metric", w)
		}
	}
}

func TestBenchmarkJSONMatchesHostbench(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, hostbench runs %v", workloads, allWorkloads)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, hostbench emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, layerMetrics()) {
		t.Errorf("BENCHMARK.json per_layer %v, hostbench emits %v", layer, layerMetrics())
	}
}

func TestAssembleEmitsEveryNameAndRequiresDeclared(t *testing.T) {
	for _, w := range allWorkloads {
		declared := declaredLayers(w)
		measured := map[string]float64{}
		for _, d := range declared {
			measured[d.Name] = 1
		}
		got, err := assemble(layerMetrics(), declared, measured)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, d := range layerMetrics() {
			if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: %s emitted as %+v", w, d.Name, v)
			}
		}
		delete(measured, declared[0].Name)
		if _, err := assemble(layerMetrics(), declared, measured); err == nil {
			t.Errorf("%s: a declared metric that was not measured went unreported", w)
		}
	}
}
