// Command fibersweep runs a free-form configuration sweep of one or
// more miniapps: every decomposition, stride, allocation and compiler
// configuration requested, one result row per run. It is the tool for
// exploring beyond the paper's fixed figures.
//
// Usage:
//
//	fibersweep -app ccsqcd -size small
//	fibersweep -app mvmc,stream -machines a64fx,skylake -compilers as-is,tuned
//	fibersweep -app stream -trace sweep.trace.json -trace-config a64fx:4x12
//	fibersweep -app stream -manifest runs/        # one manifest per run
//	fibersweep -app stream -fault "straggler=0:1.5,noise=200us:20us"
//	fibersweep -app mvmc -resume sweep.state     # crash-safe, restartable
//	fibersweep -app stream -decomps 1x48,4x12,48x1 -selfprofile profiles/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fibersim/internal/arch"
	"fibersim/internal/core"
	"fibersim/internal/fault"
	"fibersim/internal/harness"
	"fibersim/internal/jobs"
	"fibersim/internal/jsonl"
	_ "fibersim/internal/miniapps/all"
	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
	"fibersim/internal/trace"
	"fibersim/internal/vtime"
)

func main() {
	appNames := flag.String("app", "stream", "comma-separated miniapps to sweep")
	size := flag.String("size", "small", "data set: test, small, medium")
	machines := flag.String("machines", "a64fx", "comma-separated machine list")
	compilers := flag.String("compilers", "as-is", "comma-separated compiler configs: as-is, nosimd, simd, sched, tuned")
	decomps := flag.String("decomps", "", `comma-separated decompositions like "1x48,4x12,48x1" (default: the powers-of-two grid of each machine)`)
	stride := flag.Int("stride", 0, "node-level thread stride (0 = compact block placement)")
	traceFile := flag.String("trace", "", "write a chrome://tracing timeline of ONE configuration to this file (see -trace-app/-trace-config)")
	traceApp := flag.String("trace-app", "", "app to trace (default: the first swept)")
	traceConfig := flag.String("trace-config", "", `configuration to trace: "4x12", "machine:4x12" or "machine:4x12:compiler" (default: the first)`)
	manifestDir := flag.String("manifest", "", "write one run-manifest JSON per configuration into this directory")
	csv := flag.Bool("csv", false, "emit CSV")
	faultSpec := flag.String("fault", "", `fault schedule applied to every run, e.g. "seed=7,straggler=0:1.5,noise=200us:20us" (see internal/fault)`)
	resumePath := flag.String("resume", "", "checkpoint file: configurations already recorded there are replayed, not rerun; new rows are appended as they finish")
	retries := flag.Int("retries", 0, "retry a failed run up to N times with doubling backoff before recording the error")
	maxRuns := flag.Int("max-runs", 0, "stop after N fresh (non-resumed) runs; exits 3 if configurations remain")
	progress := flag.Bool("progress", false, "emit one JSON progress line per completed configuration on stderr (machine-readable; fiberd streams it)")
	selfProfileDir := flag.String("selfprofile", "", "write one self-profile JSON (the simulator's own wall/alloc cost) per fresh configuration into this directory")
	flag.Parse()

	// Ctrl-C or SIGTERM cancels the sweep at the next safe point — in
	// particular it aborts a retry backoff immediately instead of
	// sleeping out the schedule. Completed rows are already
	// checkpointed, so an interrupted sweep resumes cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sz, err := common.ParseSize(*size)
	if err != nil {
		fatal(err)
	}
	sel, err := parseTraceSelector(*traceApp, *traceConfig)
	if err != nil {
		fatal(err)
	}
	sched, err := fault.ParseSchedule(*faultSpec)
	if err != nil {
		fatal(err)
	}
	state, err := loadState(*resumePath)
	if err != nil {
		fatal(err)
	}
	defer state.Close()
	var apps []common.App
	for _, n := range strings.Split(*appNames, ",") {
		app, err := common.Lookup(strings.TrimSpace(n))
		if err != nil {
			fatal(err)
		}
		apps = append(apps, app)
	}
	if *manifestDir != "" {
		if err := os.MkdirAll(*manifestDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *selfProfileDir != "" {
		if err := os.MkdirAll(*selfProfileDir, 0o755); err != nil {
			fatal(err)
		}
	}
	forcedDecomps, err := parseDecomps(*decomps)
	if err != nil {
		fatal(err)
	}

	t := &harness.Table{
		ID:    "sweep",
		Title: fmt.Sprintf("%s (%s): configuration sweep", *appNames, sz),
		Columns: []string{"app", "machine", "decomp", "compiler", "time", "Gflop/s",
			"figure", "unit", "verified", "comm%"},
	}

	// Pre-parse machines and compilers so the total configuration count
	// is known before the first run: -progress reports done/total.
	var machineList []*arch.Machine
	for _, mn := range strings.Split(*machines, ",") {
		m, err := arch.Lookup(strings.TrimSpace(mn))
		if err != nil {
			fatal(err)
		}
		machineList = append(machineList, m)
	}
	type ccEntry struct {
		name string
		cc   core.CompilerConfig
	}
	var ccList []ccEntry
	for _, cn := range strings.Split(*compilers, ",") {
		cn = strings.TrimSpace(cn)
		cc, err := harness.ParseCompiler(cn)
		if err != nil {
			fatal(err)
		}
		ccList = append(ccList, ccEntry{name: cn, cc: cc})
	}
	decompsOf := func(m *arch.Machine) [][2]int {
		if len(forcedDecomps) > 0 {
			return forcedDecomps
		}
		return decompsFor(m)
	}
	total := 0
	for _, m := range machineList {
		total += len(decompsOf(m)) * len(ccList)
	}
	total *= len(apps)

	traced := false
	freshRuns, doneRuns, truncated := 0, 0, false
sweep:
	for _, app := range apps {
		for _, m := range machineList {
			for _, d := range decompsOf(m) {
				for _, ce := range ccList {
					cn, cc := ce.name, ce.cc
					rc := common.RunConfig{
						Machine: m, Procs: d[0], Threads: d[1],
						Compiler: cc, Size: sz, NodeStride: *stride,
						Fault: sched,
					}
					if *traceFile != "" && !traced && sel.matches(app.Name(), m.Name, d, cn) {
						traced = true
						if err := writeTrace(app, rc, *traceFile); err != nil {
							fatal(err)
						}
					}
					key := fmt.Sprintf("%s|%s|%dx%d|%s", app.Name(), m.Name, d[0], d[1], cc.String())
					if cells, ok := state.done[key]; ok {
						t.AddRow(cells...)
						doneRuns++
						if *progress {
							p := progressRow(app.Name(), m.Name, d, cc.String(), sz,
								doneRuns, total, common.Result{}, nil, true)
							emitProgress(&p)
						}
						continue
					}
					if *maxRuns > 0 && freshRuns >= *maxRuns {
						truncated = true
						break sweep
					}
					var rec *obs.Recorder
					if *manifestDir != "" {
						rec = obs.NewRecorder()
						rec.SetMeta(app.Name(), rc.String())
						rc.Recorder = rec
					}
					var cost *obs.CostRecorder
					if *selfProfileDir != "" {
						cost = obs.NewCostRecorder(time.Now)
						rc.Cost = cost
						cost.Start()
					}
					res, err := runOne(ctx, app, rc, *retries)
					if ctx.Err() != nil {
						state.Close()
						fmt.Fprintln(os.Stderr, "fibersweep: interrupted; completed rows are checkpointed")
						os.Exit(130)
					}
					cost.SnapshotHeap()
					freshRuns++
					var cells []string
					if err != nil {
						cells = []string{app.Name(), m.Name, fmt.Sprintf("%dx%d", d[0], d[1]), cc.String(),
							"error: " + err.Error(), "", "", "", "", ""}
					} else {
						if rec != nil {
							path := filepath.Join(*manifestDir, fmt.Sprintf("%s-%s-%dx%d-%s.json",
								app.Name(), m.Name, d[0], d[1], sanitize(cc.String())))
							renderStart := cost.Begin()
							if err := common.BuildManifest(res, rec).WriteFile(path); err != nil {
								fatal(err)
							}
							cost.End(obs.StageRender, renderStart)
						}
						cells = []string{app.Name(), m.Name,
							fmt.Sprintf("%dx%d", d[0], d[1]),
							cc.String(),
							vtime.Format(res.Time),
							fmt.Sprintf("%.1f", res.GFlops()),
							fmt.Sprintf("%.3g", res.Figure),
							res.FigureUnit,
							fmt.Sprint(res.Verified),
							fmt.Sprintf("%.0f%%", res.Breakdown.Get(vtime.Comm)/res.Time*100),
						}
					}
					t.AddRow(cells...)
					journalStart := cost.Begin()
					if err := state.record(key, cells); err != nil {
						fatal(err)
					}
					cost.End(obs.StageJournal, journalStart)
					cost.Finish()
					if cost != nil {
						prof := cost.Profile(app.Name())
						path := filepath.Join(*selfProfileDir, fmt.Sprintf("selfprofile-%s-%s-%dx%d-%s.json",
							app.Name(), m.Name, d[0], d[1], sanitize(cc.String())))
						if err := prof.WriteFile(path); err != nil {
							fatal(err)
						}
					}
					doneRuns++
					if *progress {
						p := progressRow(app.Name(), m.Name, d, cc.String(), sz,
							doneRuns, total, res, err, false)
						if cost != nil {
							p.WallSeconds = cost.WallSeconds()
							p.HeapPeakBytes = cost.HeapPeakBytes()
						}
						emitProgress(&p)
					}
				}
			}
		}
	}
	if *traceFile != "" && !traced {
		fatal(fmt.Errorf("no swept configuration matched -trace-app=%q -trace-config=%q", *traceApp, *traceConfig))
	}

	if *csv {
		if err := t.CSV(os.Stdout); err != nil {
			fatal(err)
		}
	} else if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "fibersweep: stopped after %d runs (-max-runs); resume with -resume %s\n",
			freshRuns, *resumePath)
		state.Close()
		os.Exit(3)
	}
}

// runOne executes one configuration, converting panics into errors and
// retrying failures on the shared jittered-exponential schedule
// (jobs.Backoff: 100 ms doubling, capped, equal jitter). The simulator
// is deterministic, so retries mostly matter for runs that touch the
// environment (manifest/trace I/O) — but they also keep a sweep alive
// across transient resource exhaustion. Cancelling ctx aborts a
// backoff wait immediately and returns the last attempt's error.
func runOne(ctx context.Context, app common.App, rc common.RunConfig, retries int) (common.Result, error) {
	var bo jobs.Backoff
	for attempt := 0; ; attempt++ {
		res, err := runOnce(app, rc)
		if err == nil || attempt >= retries {
			return res, err
		}
		if serr := jobs.Sleep(ctx, bo.Delay(attempt)); serr != nil {
			return res, err
		}
	}
}

// runOnce is one guarded attempt: a panicking miniapp produces an error
// row, not a dead sweep.
func runOnce(app common.App, rc common.RunConfig) (res common.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return app.Run(rc)
}

// sweepState is the -resume checkpoint: one JSON line per finished
// configuration, holding the key and the fully formatted row cells.
// Replaying cells (rather than rerunning) makes a resumed sweep's
// output byte-identical to an uninterrupted one. The file is a
// jsonl.Log: a kill -9 costs at most the row whose line it tore.
type sweepState struct {
	log  *jsonl.Log
	done map[string][]string
}

type stateLine struct {
	Key   string   `json:"key"`
	Cells []string `json:"cells"`
}

// loadState opens (creating if absent) the checkpoint at path and
// replays its rows. An empty path disables checkpointing.
func loadState(path string) (*sweepState, error) {
	s := &sweepState{done: map[string][]string{}}
	if path == "" {
		return s, nil
	}
	log, err := jsonl.Open(path, func(line []byte) error {
		var sl stateLine
		if err := json.Unmarshal(line, &sl); err != nil || sl.Key == "" {
			return fmt.Errorf("not a fibersweep checkpoint line: %q", line)
		}
		s.done[sl.Key] = sl.Cells
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fibersweep: %w", err)
	}
	s.log = log
	return s, nil
}

// record checkpoints one finished configuration, fsyncing so the row
// survives an immediate kill.
func (s *sweepState) record(key string, cells []string) error {
	s.done[key] = cells
	if s.log == nil {
		return nil
	}
	if err := s.log.Append(stateLine{Key: key, Cells: cells}); err != nil {
		return err
	}
	return s.log.Sync()
}

func (s *sweepState) Close() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}

// traceSelector picks which swept configuration gets the timeline; an
// empty field is a wildcard, so the zero selector matches the first
// configuration (the historical behaviour, now explicit).
type traceSelector struct {
	app, machine, decomp, compiler string
}

// parseTraceSelector parses -trace-app/-trace-config. The config
// grammar is "DECOMP", "MACHINE:DECOMP" or "MACHINE:DECOMP:COMPILER"
// with DECOMP of the form "4x12".
func parseTraceSelector(app, config string) (traceSelector, error) {
	sel := traceSelector{app: app}
	if config == "" {
		return sel, nil
	}
	parts := strings.Split(config, ":")
	switch len(parts) {
	case 1:
		sel.decomp = parts[0]
	case 2:
		sel.machine, sel.decomp = parts[0], parts[1]
	case 3:
		sel.machine, sel.decomp, sel.compiler = parts[0], parts[1], parts[2]
	default:
		return sel, fmt.Errorf(`fibersweep: -trace-config %q: want "4x12", "machine:4x12" or "machine:4x12:compiler"`, config)
	}
	if sel.decomp != "" && !strings.Contains(sel.decomp, "x") {
		return sel, fmt.Errorf("fibersweep: -trace-config decomposition %q: want the form 4x12", sel.decomp)
	}
	return sel, nil
}

func (s traceSelector) matches(app, machine string, d [2]int, compiler string) bool {
	if s.app != "" && s.app != app {
		return false
	}
	if s.machine != "" && s.machine != machine {
		return false
	}
	if s.decomp != "" && s.decomp != fmt.Sprintf("%dx%d", d[0], d[1]) {
		return false
	}
	if s.compiler != "" && s.compiler != compiler {
		return false
	}
	return true
}

// sanitize makes a compiler-config string safe as a filename fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ' ', ':':
			return '_'
		}
		return r
	}, s)
}

// parseDecomps parses the -decomps override: comma-separated PxT
// entries like "1x48,4x12,48x1". Empty means "use the per-machine
// default grid". Shapes a machine cannot actually run surface as
// per-run error rows, not parse errors — the flag only checks form.
func parseDecomps(s string) ([][2]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out [][2]int
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		px, tx, ok := strings.Cut(ent, "x")
		p, err1 := strconv.Atoi(px)
		th, err2 := strconv.Atoi(tx)
		if !ok || err1 != nil || err2 != nil || p < 1 || th < 1 {
			return nil, fmt.Errorf("fibersweep: -decomps entry %q: want the form 4x12", ent)
		}
		out = append(out, [2]int{p, th})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fibersweep: -decomps %q names no decompositions", s)
	}
	return out, nil
}

// decompsFor returns the decomposition grid for a machine: powers of
// two (plus the full spread) that divide its core count.
func decompsFor(m *arch.Machine) [][2]int {
	total := m.TotalCores()
	var out [][2]int
	for p := 1; p <= total; p *= 2 {
		if total%p == 0 {
			out = append(out, [2]int{p, total / p})
		}
	}
	if total != 1 && (len(out) == 0 || out[len(out)-1][0] != total) {
		out = append(out, [2]int{total, 1})
	}
	return out
}

// writeTrace reruns one configuration with tracing enabled and dumps
// the chrome://tracing timeline. The app's Run does not expose the MPI
// result, so the trace run goes through the harness-free path: rerun
// the app with TraceCapacity set and pull the logs from the library.
func writeTrace(app common.App, rc common.RunConfig, path string) error {
	rc.TraceCapacity = 1 << 16
	res, err := app.Run(rc)
	if err != nil {
		return err
	}
	if res.Traces == nil {
		return fmt.Errorf("fibersweep: app produced no trace (miniapp predates tracing?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteChrome(f, res.Traces...); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fibersweep: wrote timeline of %s (%s) to %s\n", app.Name(), rc.String(), path)
	return nil
}

// progressRow builds the machine-readable progress line for one
// finished configuration: numbers for a fresh success, the error text
// for a failed run, and the bare identity for a resumed row (whose
// numbers live only as formatted cells in the checkpoint).
func progressRow(appName, machine string, d [2]int, compiler string, sz common.Size,
	done, total int, res common.Result, runErr error, resumed bool) obs.SweepProgress {
	p := obs.SweepProgress{
		Schema: obs.ProgressSchema,
		App:    appName, Machine: machine,
		Procs: d[0], Threads: d[1],
		Compiler: compiler, Size: sz.String(),
		Done: done, Total: total,
		Resumed: resumed,
	}
	switch {
	case resumed:
	case runErr != nil:
		p.Err = runErr.Error()
	default:
		p.TimeSeconds = res.Time
		p.GFlops = res.GFlops()
		p.Verified = res.Verified
	}
	return p
}

// emitProgress writes one progress line to stderr (stdout is reserved
// for the result table). A progress line that fails to encode is a
// bug worth dying for: consumers like fiberd trust the stream.
func emitProgress(p *obs.SweepProgress) {
	if err := p.Encode(os.Stderr); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fibersweep:", err)
	os.Exit(1)
}
