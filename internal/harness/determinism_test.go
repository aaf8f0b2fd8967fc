package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fibersim/internal/obs"
)

// TestManifestDeterministicAcrossGOMAXPROCS runs each spec 8 times,
// alternating GOMAXPROCS 1 and 4, and requires byte-identical
// manifests: a run is a pure function of its spec and seed, so the
// rank goroutines' host scheduling must not reach the folded profile.
func TestManifestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range []RunSpec{
		{App: "ffb", Procs: 4, Threads: 12, Size: "test"},
		{App: "ccsqcd", Procs: 4, Threads: 12, Size: "test"},
		{App: "ngsa", Procs: 48, Threads: 1, Size: "test"},
	} {
		var first []byte
		for i := 0; i < 8; i++ {
			runtime.GOMAXPROCS(1 + 3*(i%2))
			doc, err := spec.Execute(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", spec.App, err)
			}
			var buf bytes.Buffer
			if err := doc.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("%s %dx%d: run %d (GOMAXPROCS=%d) manifest differs from run 0",
					spec.App, spec.Procs, spec.Threads, i, runtime.GOMAXPROCS(0))
			}
		}
	}
}

// TestMetricsExpositionGolden renders the metrics of the run
// `fiberbench -app ffb -procs 4 -threads 12 -size test -metrics -`
// makes and compares them byte for byte with the golden exposition.
func TestMetricsExpositionGolden(t *testing.T) {
	app, rc, err := RunSpec{App: "ffb", Procs: 4, Threads: 12, Size: "test"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	rc.Recorder = rec
	rec.SetMeta(app.Name(), rc.Normalized().String())
	if _, err := app.Run(rc); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rec.Registry().WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ffb-4x12-test.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from testdata/ffb-4x12-test.prom:\n%s", got.String())
	}
}
