package main

import (
	"math"
	"testing"

	"fibersim/internal/harness"
	"fibersim/internal/jobs"
)

func TestGoldenCoversEveryInput(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range gridCells(nil) {
		if _, ok := g.Grid[cellKey(c)]; !ok {
			t.Errorf("no golden entry for grid cell %s", cellKey(c))
		}
	}
	for _, s := range specSpace() {
		if _, ok := g.Service[specKey(s)]; !ok {
			t.Errorf("no golden entry for service spec %s", specKey(s))
		}
	}
}

// cheapCell is a grid cell that runs in milliseconds.
func cheapCell(t *testing.T) gridCell {
	t.Helper()
	cells, err := resolveCells([]harness.BenchConfig{
		{App: "nicam", Machine: "a64fx", Procs: 4, Threads: 12, Compiler: "tuned"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

func TestPerturbedGridGoldenIsReported(t *testing.T) {
	c := cheapCell(t)
	key := cellKey(c.cfg)
	for _, tc := range []struct {
		name    string
		perturb func(*gridOutcome)
	}{
		{"time one ulp", func(o *gridOutcome) { o.TimeSeconds = math.Nextafter(o.TimeSeconds, 1) }},
		{"gflops one ulp", func(o *gridOutcome) { o.GFlops = math.Nextafter(o.GFlops, 0) }},
		{"comm bytes", func(o *gridOutcome) { o.CommBytes++ }},
		{"verified", func(o *gridOutcome) { o.Verified = false }},
		{"attribution", func(o *gridOutcome) {
			a := map[string]float64{}
			for r, v := range o.Attribution {
				a[r] = v * (1 + 1e-9)
			}
			o.Attribution = a
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := loadGolden()
			if err != nil {
				t.Fatal(err)
			}
			if p := runGridPasses(g, []gridCell{c}, 0, false); p.failed != 0 {
				t.Fatalf("unperturbed golden: %d of %d failed", p.failed, p.attempted)
			}
			want := g.Grid[key]
			tc.perturb(&want)
			g.Grid[key] = want
			if p := runGridPasses(g, []gridCell{c}, 0, false); p.failed != 1 || p.attempted != 1 {
				t.Fatalf("perturbed golden: %d of %d failed, want 1 of 1", p.failed, p.attempted)
			}
		})
	}
}

func TestPerturbedServiceGoldenIsReported(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	spec := jobs.Spec{App: "mvmc", Machine: "skylake", Procs: 2, Threads: 3, Compiler: "simd", Size: "test"}
	got, err := executeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.checkJob(spec, got); err != nil {
		t.Fatalf("unperturbed golden: %v", err)
	}
	want := g.Service[specKey(spec)]
	want.TimeSeconds = math.Nextafter(want.TimeSeconds, 1)
	g.Service[specKey(spec)] = want
	if err := g.checkJob(spec, got); err == nil {
		t.Fatal("a golden time one ulp away was not reported")
	}
}

func TestKnownNondeterminismStaysNarrow(t *testing.T) {
	// The listed modylas tolerance must not hide a real change of its
	// modeled time: a move of 5e-4 is reported, in either direction and
	// in gflops too.
	for _, field := range []string{"time_seconds", "gflops"} {
		for _, moved := range []float64{1 + 5e-4, 1 - 5e-4} {
			if match("modylas", 48, field, moved, 1) {
				t.Errorf("a move of modylas 48-rank %s to %v times its golden value passes", field, moved)
			}
		}
	}
	// The widest deviation measured when the tolerance was set passes.
	if !match("modylas", 48, "time_seconds", 1+2.51e-4, 1) {
		t.Error("the measured modylas 48-rank jitter fails")
	}
	// Every other app's time is still compared bit for bit.
	if match("stream", 48, "time_seconds", math.Nextafter(1, 2), 1) {
		t.Error("a one-ulp move of stream time passes")
	}
}
