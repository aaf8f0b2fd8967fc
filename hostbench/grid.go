package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"fibersim/internal/harness"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
)

// gridSize is the data set of the grid workloads: the size the
// committed BENCH_fibersim.json trajectory is recorded at.
const gridSize = "small"

// gridCells returns the harness.BenchGrid cells keep accepts (all of
// them for a nil keep), in grid order.
func gridCells(keep func(harness.BenchConfig) bool) []harness.BenchConfig {
	var out []harness.BenchConfig
	for _, c := range harness.BenchGrid() {
		if keep == nil || keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// workloadCells maps a grid workload to its cells: grid-ranks is the
// 48-rank column, grid-threads the 1x48 and 4x12 columns.
func workloadCells(workload string) []harness.BenchConfig {
	return gridCells(func(c harness.BenchConfig) bool {
		return (c.Procs == 48) == (workload == wlRanks)
	})
}

func cellSpec(c harness.BenchConfig) harness.RunSpec {
	return harness.RunSpec{App: c.App, Machine: c.Machine, Procs: c.Procs, Threads: c.Threads,
		Compiler: c.Compiler, Size: gridSize}
}

func cellKey(c harness.BenchConfig) string {
	return fmt.Sprintf("%s|%s|%dx%d|%s|%s", c.App, c.Machine, c.Procs, c.Threads, c.Compiler, gridSize)
}

// gridCell is a grid cell resolved by harness.RunSpec.Resolve.
type gridCell struct {
	cfg harness.BenchConfig
	app common.App
	rc  common.RunConfig
}

func resolveCells(cfgs []harness.BenchConfig) ([]gridCell, error) {
	cells := make([]gridCell, len(cfgs))
	for i, c := range cfgs {
		app, rc, err := cellSpec(c).Resolve()
		if err != nil {
			return nil, err
		}
		cells[i] = gridCell{c, app, rc}
	}
	return cells, nil
}

// cellResult is one executed cell: the modeled outcome, the host time
// of each layer call, and the layer counts read from the result.
type cellResult struct {
	outcome                   gridOutcome
	run, render               time.Duration
	charges, regions          int64
	messages, bytes, collects int64
}

// runCell runs and renders one cell the way fiberperf and fiberd do:
// App.Run under a fresh Recorder, then BuildManifest and its JSON
// encoding.
func runCell(c gridCell) (cellResult, error) {
	var cr cellResult
	rc := c.rc
	rec := obs.NewRecorder()
	rc.Recorder = rec
	rec.SetMeta(c.app.Name(), rc.String())
	t0 := time.Now()
	res, err := c.app.Run(rc)
	t1 := time.Now()
	if err != nil {
		return cr, fmt.Errorf("%s: %w", cellKey(c.cfg), err)
	}
	doc := common.BuildManifest(res, rec)
	err = doc.Encode(io.Discard)
	t2 := time.Now()
	if err != nil {
		return cr, err
	}
	cr.run, cr.render = t1.Sub(t0), t2.Sub(t1)

	attr := obs.Attribution{}
	for _, k := range doc.Profile.Kernels {
		attr = attr.Add(k.Attribution)
		cr.charges += k.Calls
	}
	split := map[string]float64{}
	for _, r := range obs.Resources() {
		if v := attr.Get(r); v > 0 {
			split[r.String()] = v
		}
	}
	cr.bytes = res.Comm.SendBytes
	for _, b := range res.Comm.CollectiveBytes {
		cr.bytes += b
	}
	for _, n := range res.Comm.Collectives {
		cr.collects += n
	}
	cr.messages = res.Comm.Sends
	cr.regions = doc.Profile.OMP.Regions
	cr.outcome = gridOutcome{
		TimeSeconds: res.Time, GFlops: res.GFlops(), Verified: res.Verified,
		CommBytes: cr.bytes, Attribution: split,
	}
	return cr, nil
}

// gridSetup is everything a grid run of fibersim does before its first
// App.Run: order the cells from the seed and resolve each one. It
// returns the ordered cells and the resolve time. Loading the golden
// record is hostbench's own work, so it is not part of it.
func gridSetup(workload string, seed int64) ([]gridCell, time.Duration, error) {
	cfgs := workloadCells(workload)
	rand.New(rand.NewSource(seed)).Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	t0 := time.Now()
	cells, err := resolveCells(cfgs)
	return cells, time.Since(t0), err
}

// runtimeReading is the slice of runtime/metrics the traced run reports.
type runtimeReading struct{ allocBytes, gcCPU, gcCycles float64 }

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeReading{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// settle returns the heap to the OS and resets the kernel's RSS
// high-water mark, so the next cell's peak is its own. It runs outside
// every timed window.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		warnOnce("cannot reset the RSS high-water mark, peak_rss_mb is the process peak: " + err.Error())
	}
}

// gridPass is the aggregate of one or more passes over the cells.
type gridPass struct {
	walls, cpus []float64 // per pass, seconds
	cellMS      []float64 // per cell, milliseconds
	peakRSS     float64   // MB
	attempted   int
	failed      int
	layer       map[string]float64
}

// runGridPasses runs passes over the cells until seconds have been
// measured (at least one pass). With traced set it also folds the
// per-layer counts and runtime/metrics deltas into layer.
func runGridPasses(g *golden, cells []gridCell, seconds float64, traced bool) gridPass {
	p := gridPass{layer: map[string]float64{}}
	var measured float64
	for len(p.walls) == 0 || measured < seconds {
		var wall, cpu float64
		for _, c := range cells {
			settle()
			rt0 := readRuntime()
			cpu0 := cpuSeconds()
			t0 := time.Now()
			cr, err := runCell(c)
			if err == nil {
				err = g.checkGrid(cellKey(c.cfg), c.cfg.App, c.cfg.Procs, cr.outcome)
			}
			d := time.Since(t0).Seconds()
			cpu += cpuSeconds() - cpu0
			rt1 := readRuntime()
			wall += d
			p.cellMS = append(p.cellMS, d*1e3)
			p.attempted++
			if err != nil {
				p.failed++
				fmt.Fprintln(os.Stderr, "hostbench:", err)
			}
			if rss := peakRSSMB(); rss > p.peakRSS {
				p.peakRSS = rss
			}
			if traced {
				l := p.layer
				l["harness.render_ms"] += cr.render.Seconds() * 1e3
				l["miniapps.run_s."+c.cfg.App] += cr.run.Seconds()
				l["miniapps.kernel_charges"] += float64(cr.charges)
				l["omp.regions"] += float64(cr.regions)
				l["mpi.messages"] += float64(cr.messages)
				l["mpi.bytes"] += float64(cr.bytes)
				l["mpi.collectives"] += float64(cr.collects)
				l["runtime.alloc_gb"] += (rt1.allocBytes - rt0.allocBytes) / 1e9
				l["runtime.gc_cpu_s"] += rt1.gcCPU - rt0.gcCPU
				l["runtime.gc_cycles"] += rt1.gcCycles - rt0.gcCycles
			}
		}
		p.walls = append(p.walls, wall)
		p.cpus = append(p.cpus, cpu)
		measured += wall
	}
	if traced {
		// Per-layer figures are per pass, like wall_s.
		n := float64(len(p.walls))
		for k := range p.layer {
			p.layer[k] /= n
		}
	}
	return p
}

// gridWorkload runs grid-threads or grid-ranks.
func gridWorkload(o options) (*runResult, error) {
	probe := func() (time.Duration, error) { return probeChild(o) }
	setup, err := setupSamples(setupBefore, probe)
	if err != nil {
		return nil, err
	}
	cells, resolve, err := gridSetup(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	plain := runGridPasses(g, cells, o.seconds, false)
	after, err := setupSamples(setupAfter, probe)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		attempted: plain.attempted, failed: plain.failed,
		e2e: map[string]float64{
			"wall_s":      median(plain.walls),
			"cpu_s":       median(plain.cpus),
			"peak_rss_mb": plain.peakRSS,
			"setup_s":     median(append(setup, after...)),
			"jobs_per_s":  float64(len(plain.cellMS)) / sum(plain.walls),
			"job_p50_ms":  quantile(plain.cellMS, 0.50),
			"job_p99_ms":  quantile(plain.cellMS, 0.99),
		},
	}
	if !o.trace {
		return res, nil
	}
	traced := runGridPasses(g, cells, o.seconds, true)
	res.attempted += traced.attempted
	res.failed += traced.failed
	res.layer = traced.layer
	res.layer["harness.resolve_ms"] = resolve.Seconds() * 1e3
	res.layer["trace.overhead_s"] = median(traced.walls) - median(plain.walls)
	if err := runProbes(o, prefillJournal{}, res.layer); err != nil {
		return nil, err
	}
	return res, nil
}
