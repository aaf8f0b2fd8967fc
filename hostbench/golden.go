package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"fibersim/internal/jobs"
)

// The golden record pins every modeled output the benchmark produces.
// A host-cost change must leave all of them bit-identical; an
// operation whose output differs counts as failed.

//go:embed golden/grid.json
var gridGoldenJSON []byte

//go:embed golden/service.json
var serviceGoldenJSON []byte

// gridOutcome is the modeled output of one grid cell: the fields of a
// perfdb trajectory record that a model change moves.
type gridOutcome struct {
	TimeSeconds float64            `json:"time_seconds"`
	GFlops      float64            `json:"gflops"`
	Verified    bool               `json:"verified"`
	CommBytes   int64              `json:"comm_bytes"`
	Attribution map[string]float64 `json:"attribution"`
}

// jobOutcome is the modeled output fiberd reports for one job.
type jobOutcome struct {
	TimeSeconds float64 `json:"time_seconds"`
	GFlops      float64 `json:"gflops"`
	Verified    bool    `json:"verified"`
}

type golden struct {
	Grid    map[string]gridOutcome
	Service map[string]jobOutcome
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(gridGoldenJSON, &g.Grid); err != nil {
		return nil, fmt.Errorf("golden grid: %w", err)
	}
	if err := json.Unmarshal(serviceGoldenJSON, &g.Service); err != nil {
		return nil, fmt.Errorf("golden service: %w", err)
	}
	return g, nil
}

// sameFloat is bit identity, so a result that moves by one ulp fails.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// knownNondeterminism lists the modeled outputs fibersim does not yet
// compute bit-reproducibly, each with the relative tolerance it is
// compared within instead of bit identity. Every entry is a program
// defect, measured when the golden record was written; the change
// that fixes one deletes its entry.
var knownNondeterminism = []struct {
	app    string // "" matches every app
	procs  int    // 0 matches every rank count
	field  string
	relTol float64
}{
	// obs.Recorder folds kernel attribution in span arrival order, so
	// the per-resource sums vary in their last bits between runs.
	{"", 0, "attribution", 1e-12},
	// modylas at 48 ranks: the modeled time varies between runs in
	// steps of about 5.6e-8 s, even at GOMAXPROCS=1; its energy check
	// does not vary. Over 60 runs of each cell the as-is time stayed
	// within [-9.0e-5, +3.6e-5] of its golden value and the tuned time
	// within [-8.4e-5, +2.51e-4], so the tolerance is one step above the
	// widest deviation seen.
	{"modylas", 48, "time_seconds", 3e-4},
	{"modylas", 48, "gflops", 3e-4},
}

// match compares one modeled float of a run of app at procs ranks:
// bit-identical, unless knownNondeterminism lists the field.
func match(app string, procs int, field string, got, want float64) bool {
	for _, k := range knownNondeterminism {
		if (k.app == "" || k.app == app) && (k.procs == 0 || k.procs == procs) && k.field == field {
			return math.Abs(got-want) <= k.relTol*math.Abs(want)
		}
	}
	return sameFloat(got, want)
}

// checkGrid compares a cell's outcome to the golden entry under key.
func (g *golden) checkGrid(key, app string, procs int, got gridOutcome) error {
	want, ok := g.Grid[key]
	if !ok {
		return fmt.Errorf("golden: no grid entry %s", key)
	}
	if !got.Verified {
		return fmt.Errorf("golden: %s not verified", key)
	}
	if !match(app, procs, "time_seconds", got.TimeSeconds, want.TimeSeconds) ||
		!match(app, procs, "gflops", got.GFlops, want.GFlops) ||
		got.Verified != want.Verified || got.CommBytes != want.CommBytes {
		return fmt.Errorf("golden: %s got time %v gflops %v comm %d, want %v %v %d",
			key, got.TimeSeconds, got.GFlops, got.CommBytes, want.TimeSeconds, want.GFlops, want.CommBytes)
	}
	if len(got.Attribution) != len(want.Attribution) {
		return fmt.Errorf("golden: %s attribution has %d resources, want %d",
			key, len(got.Attribution), len(want.Attribution))
	}
	for r, v := range want.Attribution {
		if !match(app, procs, "attribution", got.Attribution[r], v) {
			return fmt.Errorf("golden: %s attribution %s got %v, want %v", key, r, got.Attribution[r], v)
		}
	}
	return nil
}

// checkJob compares a job's result to the golden entry for spec.
func (g *golden) checkJob(spec jobs.Spec, got jobOutcome) error {
	key := specKey(spec)
	want, ok := g.Service[key]
	if !ok {
		return fmt.Errorf("golden: no service entry %s", key)
	}
	if !got.Verified {
		return fmt.Errorf("golden: %s not verified", key)
	}
	if !match(spec.App, spec.Procs, "time_seconds", got.TimeSeconds, want.TimeSeconds) ||
		!match(spec.App, spec.Procs, "gflops", got.GFlops, want.GFlops) {
		return fmt.Errorf("golden: %s got time %v gflops %v, want %v %v",
			key, got.TimeSeconds, got.GFlops, want.TimeSeconds, want.GFlops)
	}
	return nil
}

// writeGolden recomputes every golden entry in-process and rewrites
// the files under dir. Run it only for a change that is meant to move
// modeled results, and say so in that change.
func writeGolden(dir string) error {
	cells, err := resolveCells(gridCells(nil))
	if err != nil {
		return err
	}
	grid := map[string]gridOutcome{}
	for _, c := range cells {
		cr, err := runCell(c)
		if err != nil {
			return err
		}
		grid[cellKey(c.cfg)] = cr.outcome
	}
	service := map[string]jobOutcome{}
	for _, s := range specSpace() {
		got, err := executeSpec(s)
		if err != nil {
			return fmt.Errorf("golden: %s: %w", specKey(s), err)
		}
		service[specKey(s)] = got
	}
	if err := writeSortedJSON(filepath.Join(dir, "grid.json"), grid); err != nil {
		return err
	}
	return writeSortedJSON(filepath.Join(dir, "service.json"), service)
}

// writeSortedJSON writes a map one entry per line, keys sorted, so the
// golden diffs line by line when a model change regenerates it.
func writeSortedJSON[V any](path string, m map[string]V) error {
	keys := sortedKeys(m)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%s: %s%s\n", kb, vb, sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
