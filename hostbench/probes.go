package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/jobs"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/mpi"
	"fibersim/internal/omp"
	"fibersim/internal/vtime"
)

// The probes time one public function of a layer in isolation, from
// outside the program, so a per-layer change shows even where the
// workloads' end-to-end figures dilute it. Each probe reports the
// median of probeReps repetitions.
const probeReps = 5

func medianOf(reps int, f func() (float64, error)) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		v, err := f()
		if err != nil {
			return 0, err
		}
		xs[i] = v
	}
	return median(xs), nil
}

// runProbes adds the figure of every probe the workload declares to
// layer; a probe times the same code whichever workload runs it, so it
// runs only for the workload whose shape it reproduces. prefill is the
// run's seeded journal, which only service-mix has.
func runProbes(o options, prefill prefillJournal, layer map[string]float64) error {
	m, err := arch.Lookup("a64fx")
	if err != nil {
		return err
	}
	cores := make([]int, 12)
	for i := range cores {
		cores[i] = i
	}
	probes := map[string]func() (float64, error){
		"omp.elem_ns":            func() (float64, error) { return probeOMPElem(m) },
		"omp.region_us":          func() (float64, error) { return probeOMPRegion(m, cores) },
		"mpi.sendrecv_us":        probeSendrecv,
		"mpi.allreduce_us":       probeAllreduce,
		"core.charge_ns":         func() (float64, error) { return probeCharge(m) },
		"jobs.journal_append_us": func() (float64, error) { return probeAppend(o.workdir) },
		"jobs.replay_s":          func() (float64, error) { return probeReplay(o.workdir, prefill) },
	}
	for _, d := range declaredLayers(o.workload) {
		f, ok := probes[d.Name]
		if !ok {
			continue
		}
		v, err := medianOf(probeReps, f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", d.Name, err)
		}
		layer[d.Name] = v
	}
	return nil
}

func noBody(int, int) {}

// probeOMPElem is the per-element cost of ParallelFor's dispatch: one
// thread, an empty body, many elements (the grid-ranks shape).
func probeOMPElem(m *arch.Machine) (float64, error) {
	team, err := omp.NewTeam(m, []int{0}, &vtime.Clock{}, omp.DefaultOverheads())
	if err != nil {
		return 0, err
	}
	const n = 1 << 20
	t0 := time.Now()
	team.ParallelFor(omp.Schedule{}, n, noBody, nil)
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// probeOMPRegion is the cost of one ParallelFor region at 12 threads,
// one element per thread (the grid-threads shape).
func probeOMPRegion(m *arch.Machine, cores []int) (float64, error) {
	team, err := omp.NewTeam(m, cores, &vtime.Clock{}, omp.DefaultOverheads())
	if err != nil {
		return 0, err
	}
	const regions = 2000
	t0 := time.Now()
	for i := 0; i < regions; i++ {
		team.ParallelFor(omp.Schedule{}, len(cores), noBody, nil)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / regions, nil
}

// probeRanks is the world size of the mpi probes: the grid-ranks
// decomposition.
const (
	probeRanks = 48
	probeOps   = 200
)

// probeSendrecv is the host cost of one ring Sendrecv step of a
// 48-rank world, per step.
func probeSendrecv() (float64, error) {
	buf := make([]float64, 64)
	t0 := time.Now()
	_, err := mpi.Run(mpi.Config{Ranks: probeRanks}, func(c *mpi.Comm) error {
		right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		for i := 0; i < probeOps; i++ {
			if _, err := c.Sendrecv(right, i, buf, left, i); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / probeOps, err
}

// probeAllreduce is the host cost of one 48-rank Allreduce.
func probeAllreduce() (float64, error) {
	buf := make([]float64, 64)
	t0 := time.Now()
	_, err := mpi.Run(mpi.Config{Ranks: probeRanks}, func(c *mpi.Comm) error {
		for i := 0; i < probeOps; i++ {
			if _, err := c.Allreduce(mpi.OpSum, buf); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / probeOps, err
}

// probeCharge is the host cost of one Model.Charge of the STREAM triad
// kernel by a one-thread rank (the grid-ranks shape).
func probeCharge(m *arch.Machine) (float64, error) {
	app, err := common.Lookup("stream")
	if err != nil {
		return 0, err
	}
	k := app.Kernels(common.SizeSmall)[0]
	mdl := core.NewModel(m)
	ex := core.Exec{ThreadCores: []int{0}, HomeDomain: -1, Compiler: core.AsIs()}
	clock := &vtime.Clock{}
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := mdl.Charge(clock, k, 1e6, ex); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, nil
}

// probeAppend is the median host cost of one Journal.Append that syncs
// its record, as fiberd's default journal does.
func probeAppend(workdir string) (float64, error) {
	dir, err := os.MkdirTemp(workdir, "append-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := jobs.OpenJournal(filepath.Join(dir, "jobs.journal"), 0)
	if err != nil {
		return 0, err
	}
	spec := jobs.Spec{App: "stream", Size: "test"}
	const appends = 100
	us := make([]float64, appends)
	for i := range us {
		r := jobs.Record{Schema: jobs.JournalSchema, ID: fmt.Sprintf("job-%06d", i+1),
			State: jobs.StateAccepted, Spec: &spec}
		t0 := time.Now()
		if err := j.Append(r); err != nil {
			_ = j.Close() // the append error is the one worth reporting
			return 0, err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us), j.Close()
}

// prefillJournal is a seeded journal written by writePrefill.
type prefillJournal struct {
	path    string
	records int
}

// probeReplay is the time OpenJournal takes to replay the seeded
// prefilled journal, the replay fiberd does at start.
func probeReplay(workdir string, prefill prefillJournal) (float64, error) {
	cp := filepath.Join(workdir, "replay.journal")
	if err := copyFile(cp, prefill.path); err != nil {
		return 0, err
	}
	defer os.Remove(cp)
	t0 := time.Now()
	j, recs, err := jobs.OpenJournal(cp, 0)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if len(recs) != prefill.records {
		_ = j.Close() // the count mismatch is the error worth reporting
		return 0, fmt.Errorf("replayed %d records, want %d", len(recs), prefill.records)
	}
	return d, j.Close()
}
