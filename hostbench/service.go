package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fibersim/internal/harness"
	"fibersim/internal/jobs"
	"fibersim/internal/obs"
)

// The service-mix workload: fiberd with two workers, a journal synced
// on every record and an in-memory result cache, driven closed-loop by
// two clients. Each client waits for its job's result before it sends
// the next spec, which is how fiberd's callers use it.
const (
	serviceClients = 2
	serviceWorkers = 2
	// perShape is how many fresh specs of each (app, decomposition)
	// shape a batch submits. Host cost follows the shape far more than
	// the machine or compiler, so every seed gets the same work.
	perShape = 4
	// minBatches is the fewest batches a session measures. The host's
	// speed swings by a third for a minute at a time, and a batch takes
	// about 20 s, so a run spans two batches to average over more of
	// those swings.
	minBatches = 2
	// prefillPerShape is how many completed jobs of each shape the
	// journal the daemon replays at start holds.
	prefillPerShape = 2
	// repeatNum/repeatDen is the share of submissions that repeat an
	// earlier spec, so cache reads and coalescing sit beside journal
	// writes and fresh runs. The share, like the uniform draw over
	// specSpace, is an assumption, not observed traffic: no recorded
	// fiberd traffic exists to take it from. 3 in 10 makes the cache
	// path large enough to move jobs_per_s and job_p50_ms while fresh
	// runs stay the majority and set job_p99_ms.
	repeatNum, repeatDen = 3, 10
)

var (
	serviceMachines  = []string{"a64fx", "skylake", "thunderx2"}
	serviceCompilers = []string{"as-is", "nosimd", "simd", "sched", "tuned"}
	// serviceDecomps are the decompositions every suite app accepts at
	// test size (its problems divide by 16 ranks) that fit the 48 cores
	// of the smallest machine.
	serviceDecomps = func() [][2]int {
		var out [][2]int
		for _, p := range []int{1, 2, 4, 8} {
			for _, t := range []int{1, 2, 3, 4, 6} {
				out = append(out, [2]int{p, t})
			}
		}
		return out
	}()
)

// specSpace is every spec the service workload can draw, shape by
// shape: test-size runs of the suite apps over serviceDecomps, each
// with every machine and compiler.
func specSpace() []jobs.Spec {
	var out []jobs.Spec
	for _, app := range suiteApps {
		for _, d := range serviceDecomps {
			for _, m := range serviceMachines {
				for _, cc := range serviceCompilers {
					out = append(out, jobs.Spec{App: app, Machine: m, Procs: d[0], Threads: d[1],
						Compiler: cc, Size: "test"})
				}
			}
		}
	}
	return out
}

func specKey(s jobs.Spec) string {
	return fmt.Sprintf("%s|%s|%dx%d|%s|%s", s.App, s.Machine, s.Procs, s.Threads, s.Compiler, s.Size)
}

// executeSpec runs a spec in-process through the path fiberd's runner
// takes, harness.RunSpec.Execute.
func executeSpec(s jobs.Spec) (jobOutcome, error) {
	doc, err := harness.RunSpec{App: s.App, Machine: s.Machine, Procs: s.Procs, Threads: s.Threads,
		Compiler: s.Compiler, Size: s.Size}.Execute(context.Background())
	if err != nil {
		return jobOutcome{}, err
	}
	return jobOutcome{TimeSeconds: doc.TimeSeconds, GFlops: doc.GFlops, Verified: doc.Verified}, nil
}

// isRepeat reports whether submission i of a batch repeats an earlier
// spec. The positions are fixed, so every prefix of every batch has the
// same repeat share whatever the seed; the first submission is fresh.
func isRepeat(i int) bool { return (i+1)*repeatNum/repeatDen > i*repeatNum/repeatDen }

// mixPlan is the seeded input of one service run.
type mixPlan struct {
	// prefill are the completed jobs of the replayed journal,
	// prefillPerShape per shape; no submission draws them.
	prefill []jobs.Spec
	// batches are the submission sequences, each perShape fresh specs
	// of every shape in shuffled order, with repeats of earlier specs
	// of the run at the isRepeat positions.
	batches [][]jobs.Spec
}

// planMix derives the service inputs from the seed alone. Each shape's
// machine-compiler variants are dealt in a seeded order: the first
// prefillPerShape to the journal, the next perShape to each batch in
// turn.
func planMix(seed int64) mixPlan {
	rng := rand.New(rand.NewSource(seed))
	space := specSpace()
	variants := len(serviceMachines) * len(serviceCompilers) // specs per shape
	nBatches := (variants - prefillPerShape) / perShape
	var p mixPlan
	fresh := make([][]jobs.Spec, nBatches)
	for shape := 0; shape < len(space)/variants; shape++ {
		vs := space[shape*variants : (shape+1)*variants]
		rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		p.prefill = append(p.prefill, vs[:prefillPerShape]...)
		for b := range fresh {
			lo := prefillPerShape + b*perShape
			fresh[b] = append(fresh[b], vs[lo:lo+perShape]...)
		}
	}
	var done []jobs.Spec
	for _, f := range fresh {
		rng.Shuffle(len(f), func(i, j int) { f[i], f[j] = f[j], f[i] })
		var seq []jobs.Spec
		for i, next := 0, 0; next < len(f); i++ {
			if isRepeat(i) {
				seq = append(seq, done[rng.Intn(len(done))])
				continue
			}
			seq = append(seq, f[next])
			done = append(done, f[next])
			next++
		}
		p.batches = append(p.batches, seq)
	}
	return p
}

// writePrefill writes the plan's completed jobs to a fresh journal
// through jobs.Journal, each with the accepted, running and done
// records a live daemon would have written and its golden result.
func writePrefill(path string, p mixPlan, g *golden) (prefillJournal, error) {
	pj := prefillJournal{path: path}
	j, _, err := jobs.OpenJournal(path, time.Hour)
	if err != nil {
		return pj, err
	}
	base := time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i, s := range p.prefill {
		want, ok := g.Service[specKey(s)]
		if !ok {
			_ = j.Close() // the missing entry is the error worth reporting
			return pj, fmt.Errorf("golden: no service entry %s", specKey(s))
		}
		spec := s
		res := jobs.Result{TimeSeconds: want.TimeSeconds, GFlops: want.GFlops, Verified: want.Verified}
		id := fmt.Sprintf("job-%06d", i+1)
		at := base + int64(i)*int64(time.Second)
		for _, r := range []jobs.Record{
			{ID: id, State: jobs.StateAccepted, Spec: &spec, UnixNanos: at, Tenant: spec.TenantKey()},
			{ID: id, State: jobs.StateRunning, Attempt: 1, UnixNanos: at + 1},
			{ID: id, State: jobs.StateDone, Attempt: 1, Result: &res, UnixNanos: at + 2},
		} {
			r.Schema = jobs.JournalSchema
			if err := j.Append(r); err != nil {
				_ = j.Close() // the append error is the one worth reporting
				return pj, err
			}
			pj.records++
		}
	}
	return pj, j.Close()
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// daemon is one fiberd process this benchmark started.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon execs fiberd on a copy of the prefilled journal and
// returns once GET /readyz answers 200, with the time from exec to
// ready. withRuntime adds the daemon's runtime/metrics endpoint, which
// only the traced run reads.
func startDaemon(o options, hc *http.Client, prefilled string, withRuntime bool) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(o.workdir, "fiberd-")
	if err != nil {
		return nil, 0, err
	}
	journal := filepath.Join(dir, "jobs.journal")
	if err := copyFile(journal, prefilled); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-manifests", dir,
		"-journal", journal,
		"-workers", strconv.Itoa(serviceWorkers),
		"-result-cache", "mem",
	}
	if withRuntime {
		args = append(args, "-runtime-metrics")
	}
	d := &daemon{cmd: exec.Command(o.fiberd, args...), base: fmt.Sprintf("http://127.0.0.1:%d", port),
		exited: make(chan struct{})}
	t0 := time.Now() // output goes to the null device: exec's default
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("fiberd exited before ready: %v", d.err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			_ = d.stop() // the readiness timeout is the error worth reporting
			return nil, 0, fmt.Errorf("fiberd not ready after 60 s")
		}
	}
}

// stop sends SIGTERM, which drains fiberd, and waits for the exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // the drain hung; the timeout is the error
		<-d.exited
		return fmt.Errorf("fiberd did not drain within 30 s")
	}
}

// jobSample is one submission as the client saw it.
type jobSample struct {
	latencyMS, admitMS float64
	status             int // POST /jobs status
	cached, coalesced  bool
	err                error
	// From the job's service trace (traced runs, fresh jobs only).
	traced                        bool
	queueWaitMS, runMS, journalMS float64
	runApp                        string
}

// submit posts one spec and waits for its result: inline on a cached
// 200, or through GET /jobs/{id}/events up to the terminal state.
func submit(hc *http.Client, base string, g *golden, spec jobs.Spec, traced bool) jobSample {
	var s jobSample
	body, err := json.Marshal(spec)
	if err != nil {
		s.err = err
		return s
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var job jobs.Job
	s.status = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	s.admitMS = msSince(t0)
	if s.status != http.StatusOK && s.status != http.StatusAccepted {
		s.err = fmt.Errorf("POST /jobs %s: status %d", specKey(spec), s.status)
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("POST /jobs %s: %w", specKey(spec), err)
		return s
	}
	s.cached, s.coalesced = job.Cached, job.Coalesced
	final, done := &job, time.Now()
	if s.status == http.StatusAccepted {
		if final, done, err = awaitTerminal(hc, base, job.ID); err != nil {
			s.err = err
			return s
		}
	}
	s.latencyMS = done.Sub(t0).Seconds() * 1e3
	switch {
	case final.State != jobs.StateDone || final.Result == nil:
		s.err = fmt.Errorf("job %s %s: state %s %s", final.ID, specKey(spec), final.State, final.Err)
	default:
		r := final.Result
		s.err = g.checkJob(spec, jobOutcome{TimeSeconds: r.TimeSeconds, GFlops: r.GFlops, Verified: r.Verified})
	}
	if traced && s.err == nil && s.status == http.StatusAccepted && !s.coalesced && final.TraceID != "" {
		s.readTrace(hc, base, final.TraceID)
	}
	return s
}

// awaitTerminal reads the job's event stream to its end and returns
// the last terminal state it carried and when that state arrived. The
// stream closes once the job's root span has ended, so its trace is
// then complete.
func awaitTerminal(hc *http.Client, base, id string) (*jobs.Job, time.Time, error) {
	var at time.Time
	resp, err := hc.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		return nil, at, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, at, fmt.Errorf("GET /jobs/%s/events: status %d", id, resp.StatusCode)
	}
	var final *jobs.Job
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var ev struct {
				Job *jobs.Job `json:"job"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return nil, at, fmt.Errorf("job %s event: %w", id, err)
			}
			if ev.Job != nil && ev.Job.State.Terminal() && final == nil {
				final, at = ev.Job, time.Now()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, at, fmt.Errorf("job %s events: %w", id, err)
	}
	if final == nil {
		return nil, at, fmt.Errorf("job %s: event stream ended without a terminal state", id)
	}
	return final, at, nil
}

// readTrace folds the job's GET /traces/{id} spans into the sample. A
// trace the ring no longer holds leaves the sample untraced.
func (s *jobSample) readTrace(hc *http.Client, base, traceID string) {
	resp, err := hc.Get(base + "/traces/" + traceID)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var tr obs.Trace
	if json.NewDecoder(resp.Body).Decode(&tr) != nil {
		return
	}
	s.traced = true
	for _, sp := range tr.Spans {
		ms := sp.DurationSeconds * 1e3
		switch sp.Name {
		case "queue-wait":
			s.queueWaitMS += ms
		case "run":
			s.runMS += ms
			for _, a := range sp.Attrs {
				if a.Key == "app" {
					s.runApp = a.Value
				}
			}
		case "journal-append":
			s.journalMS += ms
		}
	}
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

// batchResult is one closed-loop batch.
type batchResult struct {
	wall, cpu float64 // seconds
	samples   []jobSample
	rssPeaks  []float64 // MB, fiberd's resident high-water mark in each rssWindow
}

// rssWindow is how often a batch reads and resets fiberd's resident
// high-water mark. peak_rss_mb is the rssQuantile of the window peaks:
// a footprint that a regression in a tenth of the windows raises, yet
// steadier across runs than the single largest window, which depends
// on which two jobs happen to overlap a garbage collection.
const (
	rssWindow   = time.Second
	rssQuantile = 0.9
)

// watchPeakRSS resets pid's resident high-water mark, reads it one
// rssWindow later, and repeats until stop is closed; it returns every
// window's peak, the last window cut short by stop.
func watchPeakRSS(pid int, stop <-chan struct{}) ([]float64, error) {
	var peaks []float64
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	for done := false; !done; {
		if err := resetPeakRSS(pid); err != nil {
			warnOnce("cannot reset fiberd's RSS high-water mark, peak_rss_mb is its process peak: " + err.Error())
		}
		select {
		case <-tick.C:
		case <-stop:
			done = true
		}
		mb, err := procPeakRSSMB(pid)
		if err != nil {
			return peaks, err
		}
		peaks = append(peaks, mb)
	}
	return peaks, nil
}

// runBatch submits seq from serviceClients closed-loop clients and
// measures the daemon's CPU and resident memory over the batch.
func runBatch(hc *http.Client, d *daemon, g *golden, seq []jobs.Spec, traced bool) (batchResult, error) {
	var (
		b    batchResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	pid := d.cmd.Process.Pid
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return b, err
	}
	stop := make(chan struct{})
	var rssErr error
	var watched sync.WaitGroup
	watched.Add(1)
	go func() {
		defer watched.Done()
		b.rssPeaks, rssErr = watchPeakRSS(pid, stop)
	}()
	t0 := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				s := submit(hc, d.base, g, seq[i], traced)
				mu.Lock()
				b.samples = append(b.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.wall = time.Since(t0).Seconds()
	close(stop)
	watched.Wait()
	if rssErr != nil {
		return b, rssErr
	}
	cpu1, err := procCPUSeconds(pid)
	b.cpu = cpu1 - cpu0
	return b, err
}

// runtimeSnapshot reads fiberd's GET /debug/runtime.
func runtimeSnapshot(hc *http.Client, base string) (obs.RuntimeSnapshot, error) {
	var snap obs.RuntimeSnapshot
	resp, err := hc.Get(base + "/debug/runtime")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /debug/runtime: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// serviceSession is one daemon's share of a run: at least minBatches
// batches, then more until the measured time reaches seconds or the
// plan runs out of batches.
type serviceSession struct {
	batches   []batchResult
	allocGB   float64
	gcCycles  float64
	failed    int
	attempted int
}

func runSession(o options, hc *http.Client, d *daemon, g *golden, batches [][]jobs.Spec, traced bool) (serviceSession, error) {
	var ss serviceSession
	var rt0 obs.RuntimeSnapshot
	var err error
	if traced {
		if rt0, err = runtimeSnapshot(hc, d.base); err != nil {
			return ss, err
		}
	}
	var measured float64
	for _, seq := range batches {
		if len(ss.batches) >= minBatches && measured >= o.seconds {
			break
		}
		b, err := runBatch(hc, d, g, seq, traced)
		if err != nil {
			return ss, err
		}
		ss.batches = append(ss.batches, b)
		measured += b.wall
		for _, s := range b.samples {
			ss.attempted++
			if s.err != nil {
				ss.failed++
				fmt.Fprintln(os.Stderr, "hostbench:", s.err)
			}
		}
	}
	if traced {
		rt1, err := runtimeSnapshot(hc, d.base)
		if err != nil {
			return ss, err
		}
		ss.allocGB = float64(rt1.AllocBytes-rt0.AllocBytes) / 1e9
		ss.gcCycles = float64(rt1.GCCycles - rt0.GCCycles)
	}
	return ss, nil
}

func (ss serviceSession) samples() []jobSample {
	var out []jobSample
	for _, b := range ss.batches {
		out = append(out, b.samples...)
	}
	return out
}

// wallPerJob is the session's measured seconds per submitted job.
func (ss serviceSession) wallPerJob() float64 {
	var wall float64
	for _, b := range ss.batches {
		wall += b.wall
	}
	return wall / float64(ss.attempted)
}

// serviceWorkload runs service-mix.
func serviceWorkload(o options) (*runResult, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	plan := planMix(o.seed)
	prefill, err := writePrefill(filepath.Join(o.workdir, "prefill.journal"), plan, g)
	if err != nil {
		return nil, err
	}
	// The timeout bounds a hung daemon; a test-size job takes well
	// under a second.
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients},
		Timeout:   60 * time.Second,
	}
	defer hc.CloseIdleConnections()

	// Each set-up sample starts a daemon on the prefilled journal and
	// stops the previous one; the last daemon started before the timed
	// work serves the measured session.
	var d *daemon
	restart := func() (time.Duration, error) {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return 0, err
			}
		}
		next, took, err := startDaemon(o, hc, prefill.path, false)
		d = next
		return took, err
	}
	stopLast := func() {
		if d != nil {
			_ = d.stop() // called on error paths; that error is the one worth reporting
		}
	}
	setup, err := setupSamples(setupBefore, restart)
	if err != nil {
		stopLast()
		return nil, err
	}
	plain, err := runSession(o, hc, d, g, plan.batches, false)
	if err != nil {
		stopLast()
		return nil, err
	}
	after, err := setupSamples(setupAfter, restart)
	if err == nil {
		err = d.stop()
	} else {
		stopLast()
	}
	if err != nil {
		return nil, err
	}
	var lat []float64
	var walls, cpus, rss []float64
	ok := 0
	for _, b := range plain.batches {
		walls = append(walls, b.wall)
		cpus = append(cpus, b.cpu)
		rss = append(rss, b.rssPeaks...)
		for _, s := range b.samples {
			if s.err == nil {
				lat = append(lat, s.latencyMS)
				ok++
			}
		}
	}
	res := &runResult{
		attempted: plain.attempted, failed: plain.failed,
		e2e: map[string]float64{
			"wall_s":      median(walls),
			"cpu_s":       median(cpus),
			"peak_rss_mb": quantile(rss, rssQuantile),
			"setup_s":     median(append(setup, after...)),
			"jobs_per_s":  float64(ok) / sum(walls),
			"job_p50_ms":  quantile(lat, 0.50),
			"job_p99_ms":  quantile(lat, 0.99),
		},
	}
	if !o.trace {
		return res, nil
	}

	d, _, err = startDaemon(o, hc, prefill.path, true)
	if err != nil {
		return nil, err
	}
	// One batch is enough for the per-layer figures, and keeps a traced
	// run, which also repeats the untraced session, well inside its time.
	traced, err := runSession(o, hc, d, g, plan.batches[:1], true)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	res.attempted += traced.attempted
	res.failed += traced.failed
	l := map[string]float64{
		"runtime.alloc_gb":  traced.allocGB,
		"runtime.gc_cycles": traced.gcCycles,
		// The two sessions may submit different job counts, so the
		// overhead compares seconds per job, scaled to the plain run.
		"trace.overhead_s": (traced.wallPerJob() - plain.wallPerJob()) * float64(plain.attempted),
	}
	var admit, queue, run, journal []float64
	hits := 0
	for _, app := range suiteApps {
		l["miniapps.run_s."+app] = 0
	}
	for _, s := range traced.samples() {
		if s.cached || s.coalesced {
			hits++
		}
		if s.status == http.StatusAccepted {
			admit = append(admit, s.admitMS)
		}
		if s.traced {
			queue = append(queue, s.queueWaitMS)
			run = append(run, s.runMS)
			journal = append(journal, s.journalMS)
			if s.runApp != "" {
				l["miniapps.run_s."+s.runApp] += s.runMS / 1e3
			}
		}
	}
	l["jobs.admit_ms"] = median(admit)
	l["jobs.queue_wait_ms"] = median(queue)
	l["jobs.run_ms"] = median(run)
	l["jobs.journal_ms"] = median(journal)
	l["jobs.cache_hit_ratio"] = float64(hits) / float64(traced.attempted)
	resolveMS, err := timeResolve(plan.batches[0])
	if err != nil {
		return nil, err
	}
	l["harness.resolve_ms"] = resolveMS
	if err := runProbes(o, prefill, l); err != nil {
		return nil, err
	}
	res.layer = l
	return res, nil
}

// timeResolve is the host time harness.RunSpec.Resolve takes over a
// batch's specs, the validation fiberd runs at every admission.
func timeResolve(seq []jobs.Spec) (float64, error) {
	t0 := time.Now()
	for _, s := range seq {
		if _, _, err := (harness.RunSpec{App: s.App, Machine: s.Machine, Procs: s.Procs,
			Threads: s.Threads, Compiler: s.Compiler, Size: s.Size}).Resolve(); err != nil {
			return 0, err
		}
	}
	return msSince(t0), nil
}
