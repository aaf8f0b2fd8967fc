package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestServiceWorkloadEmitsDeclared drives one traced service-mix run
// against a freshly built fiberd: every submission must match the
// golden record, and the run must measure every metric the workload
// declares.
func TestServiceWorkloadEmitsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fiberd and submits three batches of jobs")
	}
	dir := t.TempDir()
	fiberd := filepath.Join(dir, "fiberd")
	if out, err := exec.Command("go", "build", "-o", fiberd, "fibersim/cmd/fiberd").CombinedOutput(); err != nil {
		t.Fatalf("go build fiberd: %v\n%s", err, out)
	}
	res, err := serviceWorkload(options{workload: wlService, seed: 5, seconds: 0, trace: true,
		fiberd: fiberd, workdir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted < 3000 {
		t.Fatalf("%d of %d jobs failed; want none of at least 3000", res.failed, res.attempted)
	}
	if _, err := assemble(endToEnd, endToEnd, res.e2e); err != nil {
		t.Error(err)
	}
	if _, err := assemble(layerMetrics(), declaredLayers(wlService), res.layer); err != nil {
		t.Error(err)
	}
	if r := res.layer["jobs.cache_hit_ratio"]; r < 0.25 || r > 0.35 {
		t.Errorf("cache hit ratio %v, want about the repeat share %d/%d", r, repeatNum, repeatDen)
	}
}
