// Command hostbench is fibersim's host-cost benchmark: it times the
// real seconds, CPU and memory the simulator spends producing its
// modeled results, end to end and layer by layer, and fails a run
// whose modeled results differ from the golden record.
//
//	bash hostbench/run.sh --workload grid-ranks --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run also times a traced
// pass and the layer probes, and reports the per-layer metrics. The
// exit code is 0 only when every operation matched the golden record.
// README.md gives the workloads, metrics and baseline.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fiberd   string
	workdir  string
}

// runResult is what a workload measured.
type runResult struct {
	attempted, failed int
	e2e, layer        map[string]float64
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "grid-threads, grid-ranks or service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: grid cell order, service spec sequence and journal")
	flag.Float64Var(&o.seconds, "seconds", 10, "minimum measured seconds; whole grid passes or service batches run until reached")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.fiberd, "fiberd", "", "fiberd binary (service-mix)")
	out := flag.String("out", ".bench_build", "directory for the run's scratch files")
	goldenDir := flag.String("write-golden", "", "recompute the golden record into this directory and exit")
	setupProbe := flag.Bool("setup-probe", false, "internal: do a grid run's set-up, print ready and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if *goldenDir != "" {
		if err := writeGolden(*goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
		return 0
	}
	if *setupProbe {
		if _, _, err := gridSetup(o.workload, o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			return 1
		}
		fmt.Println("ready")
		return 0
	}
	if err := checkDefs(endToEnd, 16); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: end-to-end metrics:", err)
		return 1
	}
	if err := checkDefs(layerMetrics(), 128); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: per-layer metrics:", err)
		return 1
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: -trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	var err error
	if o.workdir, err = os.MkdirTemp(*out, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	defer os.RemoveAll(o.workdir)

	var res *runResult
	switch o.workload {
	case wlThreads, wlRanks:
		res, err = gridWorkload(o)
	case wlService:
		if o.fiberd == "" {
			err = errors.New("service-mix needs -fiberd")
			break
		}
		res, err = serviceWorkload(o)
	default:
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (want %s)\n", o.workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	all, declared, measured := endToEnd, endToEnd, res.e2e
	if o.trace {
		all, declared, measured = layerMetrics(), declaredLayers(o.workload), res.layer
	}
	metrics, err := assemble(all, declared, measured)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	rep := report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "hostbench: %d of %d operations failed or changed a modeled result\n",
			res.failed, res.attempted)
		return 1
	}
	return 0
}

func layerMetrics() []metricDef {
	out := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		out[i] = d.metricDef
	}
	return out
}

// setupBefore and setupAfter are how many times a run measures its
// set-up before and after its timed work; setup_s is the median of all
// of them. Measuring on both sides spans the run, so a run's figure
// reflects the host's speed over the run rather than at its start.
const setupBefore, setupAfter = 6, 5

// setupSamples times once n times, in seconds.
func setupSamples(n int, once func() (time.Duration, error)) ([]float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		d, err := once()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		xs[i] = d.Seconds()
	}
	return xs, nil
}

// probeChild times a grid run's set-up in a fresh process: from exec
// to the point where the run would call its first App.Run.
func probeChild(o options) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q: %v", line, rerr)
	}
	return d, nil
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		warnOnce("getrusage: " + err.Error())
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() float64 {
	v, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		warnOnce("peak RSS: " + err.Error())
	}
	return v
}

// procPeakRSSMB reads VmHWM from /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS resets a process's VmHWM to its current RSS.
func resetPeakRSS(pid int) error {
	return os.WriteFile(filepath.Join("/proc", strconv.Itoa(pid), "clear_refs"), []byte("5"), 0)
}

// userHZ is the unit of /proc/<pid>/stat times, fixed by the kernel ABI.
const userHZ = 100

// procCPUSeconds reads a process's user plus system time from
// /proc/<pid>/stat; it counts every thread of the process.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	s := string(data)
	// Fields after the parenthesised command name start at field 3.
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err := strconv.ParseFloat(fields[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(fields[12], 64)
	return (utime + stime) / userHZ, err
}

var warned sync.Map

// warnOnce prints a measurement caveat to standard error once.
func warnOnce(msg string) {
	if _, dup := warned.LoadOrStore(msg, true); !dup {
		fmt.Fprintln(os.Stderr, "hostbench: warning:", msg)
	}
}
