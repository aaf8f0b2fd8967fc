// Package common defines the shared contract of the Fiber miniapps:
// problem sizes, run configurations (the paper's experiment knobs), the
// App interface, the registry, and the Launch helper that wires a
// miniapp body into the MPI runtime, the OpenMP teams, the placement
// and the performance model.
package common

import (
	"fmt"
	"sort"
	"sync"

	"fibersim/internal/affinity"
	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/fault"
	"fibersim/internal/mpi"
	"fibersim/internal/obs"
	"fibersim/internal/omp"
	"fibersim/internal/trace"
	"fibersim/internal/vtime"
)

// Size selects a data set, mirroring the suite's test/small/... inputs
// (scaled to laptop size; see DESIGN.md). Performance-model working
// sets are scaled back up via WorkingSetScale so the cache behaviour
// matches the paper's datasets.
type Size int

const (
	// SizeTest is the smallest data set, used by unit tests.
	SizeTest Size = iota
	// SizeSmall is the paper's "small" data set (scaled down).
	SizeSmall
	// SizeMedium is a larger sweep size.
	SizeMedium
)

// String returns the data-set name.
func (s Size) String() string {
	switch s {
	case SizeTest:
		return "test"
	case SizeSmall:
		return "small"
	case SizeMedium:
		return "medium"
	default:
		return fmt.Sprintf("size(%d)", int(s))
	}
}

// WorkingSetScale returns the factor by which the performance model
// inflates a kernel's working set relative to the functional data: the
// paper's small/medium inputs are orders of magnitude larger than the
// laptop-scale arrays executed here, and that difference decides which
// cache level serves the traffic. Test size is unscaled so unit tests
// exercise the cache hierarchy directly.
func WorkingSetScale(s Size) int64 {
	switch s {
	case SizeSmall:
		return 256
	case SizeMedium:
		return 1024
	default:
		return 1
	}
}

// ParseSize converts a data-set name.
func ParseSize(s string) (Size, error) {
	switch s {
	case "test":
		return SizeTest, nil
	case "small":
		return SizeSmall, nil
	case "medium":
		return SizeMedium, nil
	}
	return 0, fmt.Errorf("common: unknown size %q", s)
}

// RunConfig is one experimental configuration — the paper's axes.
type RunConfig struct {
	// Machine is the target node; nil defaults to A64FX.
	Machine *arch.Machine
	// Procs and Threads decompose the cores into MPI ranks and OpenMP
	// threads per rank.
	Procs, Threads int
	// Alloc is the MPI process allocation method.
	Alloc affinity.ProcAlloc
	// Bind is the per-rank OpenMP thread binding.
	Bind affinity.ThreadBind
	// NodeStride, when > 0, overrides Alloc/Bind with the paper's
	// node-level thread stride placement.
	NodeStride int
	// Compiler is the build configuration.
	Compiler core.CompilerConfig
	// Size selects the data set.
	Size Size
	// Seed makes stochastic miniapps reproducible; 0 picks a fixed
	// default.
	Seed int64
	// TraceCapacity, when positive, records a per-rank timeline of
	// kernel charges and MPI operations (see internal/trace).
	TraceCapacity int
	// Recorder, when non-nil, receives the run's rank tallies (kernel
	// attributions, MPI op/peer traffic, OMP overheads) once the ranks
	// finish; see internal/obs. Nil skips the fold into a Profile.
	Recorder *obs.Recorder
	// Fault, when non-nil, runs the app under the given fault schedule:
	// kernel charges and parallel regions are perturbed by stragglers
	// and OS noise, link faults scale message costs, and scheduled rank
	// crashes abort the world. Nil is a clean run at zero cost.
	Fault *fault.Schedule
	// Cost, when non-nil, accounts the simulator's own wall-clock spend
	// per stage (setup, charge, collective, vtime-advance) — the
	// self-observability counterpart of Recorder. Nil disables the
	// accounting at zero cost.
	Cost *obs.CostRecorder
}

// Normalized returns the config with defaults applied (machine, 1x1
// decomposition, stride-1 binding, fixed seed). Apps call it first so
// the values they capture match what Launch will use.
func (c RunConfig) Normalized() RunConfig { return c.withDefaults() }

// withDefaults normalizes a config.
func (c RunConfig) withDefaults() RunConfig {
	if c.Machine == nil {
		c.Machine = arch.MustLookup("a64fx")
	}
	if c.Procs == 0 && c.Threads == 0 {
		c.Procs, c.Threads = 1, 1
	}
	if c.Bind.Stride == 0 && !c.Bind.Scatter {
		c.Bind.Stride = 1
	}
	if c.Seed == 0 {
		c.Seed = 20210901 // CLUSTER 2021 vintage
	}
	return c
}

// String renders the configuration the way result tables label rows.
func (c RunConfig) String() string {
	place := fmt.Sprintf("%s/%s", c.Alloc, c.Bind)
	if c.NodeStride > 0 {
		place = fmt.Sprintf("nodestride%d", c.NodeStride)
	}
	return fmt.Sprintf("%dx%d %s %s %s", c.Procs, c.Threads, place, c.Compiler, c.Size)
}

// Result is the outcome of one miniapp run.
type Result struct {
	// App is the miniapp name.
	App string
	// Config echoes the run configuration.
	Config RunConfig
	// Time is the virtual makespan in seconds.
	Time float64
	// Flops is the modelled floating-point work (node total).
	Flops float64
	// Figure is the app's own figure of merit (solver iterations/s,
	// MLUPS, reads/s...), with FigureUnit naming it.
	Figure     float64
	FigureUnit string
	// Verified reports the app's internal correctness check.
	Verified bool
	// Check is the number the verification inspected (residual,
	// energy drift, recall...).
	Check float64
	// Breakdown is the slowest rank's time attribution.
	Breakdown vtime.Breakdown
	// RankTimes is the per-rank makespan series.
	RankTimes *vtime.Series
	// Kernels aggregates the modelled kernel charges over all ranks,
	// keyed by kernel name — the per-kernel profile behind the paper's
	// analysis discussion.
	Kernels map[string]KernelStats
	// Traces holds per-rank timelines when the run was traced.
	Traces []*trace.Log
	// Comm profiles the MPI communication (messages, bytes,
	// per-collective counts and payloads).
	Comm mpi.CommStats
	// TraceDropped counts timeline events lost at trace capacity.
	TraceDropped int64
	// Fault counts what the fault schedule injected (zero on clean runs).
	Fault fault.Counters
}

// KernelStats accumulates the charges of one kernel: calls, iterations,
// modelled seconds and flops.
type KernelStats = obs.KernelTally

// GFlops returns the achieved node performance.
func (r Result) GFlops() float64 {
	if r.Time == 0 {
		return 0
	}
	return r.Flops / r.Time / 1e9
}

// App is one miniapp of the suite.
type App interface {
	// Name is the registry key ("ccsqcd", "ffb", ...).
	Name() string
	// Description is the one-line Table 2 entry.
	Description() string
	// Kernels returns the representative kernel descriptors for the
	// given size (used by analysis and documentation).
	Kernels(size Size) []core.Kernel
	// Run executes the miniapp under cfg.
	Run(cfg RunConfig) (Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]App{}
)

// Register adds an app, panicking on duplicates (registry is built at
// init time).
func Register(a App) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[a.Name()]; dup {
		//fiberlint:ignore barepanic registry misuse at init time is a programming error
		panic(fmt.Sprintf("common: duplicate app %q", a.Name()))
	}
	registry[a.Name()] = a
}

// Lookup returns the app registered under name.
func Lookup(name string) (App, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("common: unknown app %q (have %v)", name, Names())
	}
	return a, nil
}

// MustLookup is Lookup for apps known to exist.
func MustLookup(name string) App {
	a, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Names returns the sorted registry keys.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Env is what a miniapp rank body receives from Launch: its MPI
// communicator, its OpenMP team (bound per the placement), the machine
// performance model and the rank's modelling context.
type Env struct {
	// Comm is the rank's world communicator.
	Comm *mpi.Comm
	// Team is the rank's OpenMP thread team.
	Team *omp.Team
	// Model is the machine performance model.
	Model *core.Model
	// Exec is the rank's modelling context (placement + compiler).
	Exec core.Exec
	// Cfg echoes the run configuration.
	Cfg RunConfig

	inj  *fault.Injector   // fault injector, nil on clean runs
	cost *obs.CostRecorder // self-cost recorder, nil when disabled
}

// Rank returns the MPI rank.
func (e *Env) Rank() int { return e.Comm.Rank() }

// Procs returns the world size.
func (e *Env) Procs() int { return e.Comm.Size() }

// Threads returns the team size.
func (e *Env) Threads() int { return e.Team.Threads() }

// Charge models iters iterations of k on this rank and advances its
// clock, recording the charge in the rank's tally.
func (e *Env) Charge(k core.Kernel, iters float64) error {
	return e.ChargeWith(k, iters, e.Exec)
}

// ChargeWith is Charge under a modified execution context (e.g. a
// capped thread team). Apps must route custom-context charges through
// here rather than calling Model.Charge directly, or they dodge fault
// injection and crash checkpoints.
func (e *Env) ChargeWith(k core.Kernel, iters float64, ex core.Exec) error {
	costStart := e.cost.Begin()
	defer e.cost.End(obs.StageCharge, costStart)
	start := e.Comm.Clock().Now()
	est, err := e.Model.Charge(e.Comm.Clock(), k, iters, ex)
	if err != nil {
		return err
	}
	// Fault injection: stragglers/noise stretch the charge; the excess
	// is runtime interference, not useful compute. A kernel charge is
	// also a crash checkpoint, so a scheduled rank death fires here even
	// in compute-only phases.
	if e.inj != nil {
		if extra := e.inj.Perturb(e.Comm.Rank(), start, est.Total) - est.Total; extra > 0 {
			e.Comm.Clock().Advance(extra, vtime.Runtime)
		}
	}
	e.Comm.Tally().Kernel(k.Name, iters, est, start, e.Comm.Clock().Now())
	if e.inj != nil {
		return e.Comm.FaultCheck()
	}
	return nil
}

// RunStats couples the MPI result, with its folded rank tallies, and
// the fault counters of a run.
type RunStats struct {
	*mpi.Result
	// Fault counts what the fault schedule injected (zero on clean runs).
	Fault fault.Counters
}

// Launch plans the placement for cfg, spins up the MPI world, builds
// each rank's team and modelling context, and runs body on every rank.
func Launch(cfg RunConfig, body func(env *Env) error) (*RunStats, error) {
	cfg = cfg.withDefaults()

	// Everything before the ranks start — placement, model, fabric,
	// injector construction — is setup cost.
	setupStart := cfg.Cost.Begin()

	var pl *affinity.Placement
	var err error
	if cfg.NodeStride > 0 {
		pl, err = affinity.PlanNodeStride(cfg.Machine, cfg.Procs, cfg.Threads, cfg.NodeStride)
	} else {
		pl, err = affinity.Plan(cfg.Machine, cfg.Procs, cfg.Threads, cfg.Alloc, cfg.Bind)
	}
	if err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}

	mdl := core.NewModel(cfg.Machine)
	load := pl.DomainThreadCount()
	fabric, err := lookupFabric(cfg.Machine.NetworkName)
	if err != nil {
		return nil, err
	}

	// Messages between ranks homed in different NUMA domains cross the
	// ring bus; charge them a modest latency factor.
	homes := make([]int, cfg.Procs)
	for r := range homes {
		homes[r] = pl.HomeDomain(r)
	}
	pairScale := func(a, b int) float64 {
		if homes[a] == homes[b] {
			return 1
		}
		return 1.3
	}

	inj, err := fault.NewInjector(cfg.Fault, cfg.Procs)
	if err != nil {
		return nil, err
	}

	cfg.Cost.End(obs.StageSetup, setupStart)

	res, err := mpi.Run(mpi.Config{
		Ranks: cfg.Procs, Fabric: fabric, PairScale: pairScale,
		TraceCapacity: cfg.TraceCapacity,
		Fault:         inj,
		Cost:          cfg.Cost,
	}, func(c *mpi.Comm) error {
		team, err := omp.NewTeam(cfg.Machine, pl.ThreadCore[c.Rank()], c.Clock(), omp.DefaultOverheads())
		if err != nil {
			return err
		}
		team.Observe(c.Tally())
		if inj != nil {
			team.Inject(inj.PerturbFn(c.Rank()))
		}
		env := &Env{
			Comm:  c,
			Team:  team,
			Model: mdl,
			Exec: core.Exec{
				ThreadCores: pl.ThreadCore[c.Rank()],
				HomeDomain:  -1,
				DomainLoad:  load,
				Compiler:    cfg.Compiler,
			},
			Cfg:  cfg,
			inj:  inj,
			cost: cfg.Cost,
		}
		return body(env)
	})
	if res == nil {
		return nil, err
	}
	cfg.Recorder.Add(res.Tallies)
	return &RunStats{Result: res, Fault: inj.Counters()}, err
}

// FinishResult assembles the common fields of a Result from a run.
func FinishResult(app string, cfg RunConfig, res *RunStats) Result {
	return Result{
		App:          app,
		Config:       cfg.withDefaults(),
		Time:         res.MaxTime(),
		Breakdown:    res.Breakdown(),
		RankTimes:    res.Series(),
		Kernels:      res.Totals.Kernels,
		Traces:       res.Result.Traces,
		Comm:         res.Result.Comm,
		TraceDropped: res.Totals.TraceDropped,
		Fault:        res.Fault,
	}
}

// BuildManifest folds a finished result and the run's recorder into
// the per-run manifest document.
func BuildManifest(res Result, rec *obs.Recorder) *obs.Manifest {
	cfg := res.Config.withDefaults()
	breakdown := map[string]float64{}
	for _, cat := range vtime.Categories() {
		breakdown[cat.String()] = res.Breakdown.Get(cat)
	}
	comm := obs.CommSummary{Sends: res.Comm.Sends, SendBytes: res.Comm.SendBytes}
	if len(res.Comm.Collectives) > 0 {
		comm.Collectives = map[string]obs.CollectiveStat{}
		for name, n := range res.Comm.Collectives {
			comm.Collectives[name] = obs.CollectiveStat{
				Count: n, Bytes: res.Comm.CollectiveBytes[name],
			}
		}
	}
	return &obs.Manifest{
		Schema: obs.ManifestSchema,
		App:    res.App,
		Config: obs.RunInfo{
			Machine:    cfg.Machine.Name,
			Procs:      cfg.Procs,
			Threads:    cfg.Threads,
			NodeStride: cfg.NodeStride,
			Alloc:      cfg.Alloc.String(),
			Bind:       cfg.Bind.String(),
			Compiler:   cfg.Compiler.String(),
			Size:       cfg.Size.String(),
			Seed:       cfg.Seed,
		},
		Verified:     res.Verified,
		Check:        res.Check,
		TimeSeconds:  res.Time,
		GFlops:       res.GFlops(),
		Figure:       res.Figure,
		FigureUnit:   res.FigureUnit,
		Breakdown:    breakdown,
		Profile:      rec.Profile(),
		Comm:         comm,
		TraceDropped: res.TraceDropped,
		Fault:        faultSummary(res.Fault),
	}
}

// faultSummary mirrors non-zero fault counters into the manifest's
// dependency-free form; clean runs keep the field absent.
func faultSummary(c fault.Counters) *obs.FaultSummary {
	if c.Zero() {
		return nil
	}
	return &obs.FaultSummary{
		StragglerSeconds: c.StragglerSeconds,
		NoiseEvents:      c.NoiseEvents,
		NoiseSeconds:     c.NoiseSeconds,
		DegradedSends:    c.DegradedSends,
		Crashes:          c.Crashes,
	}
}
