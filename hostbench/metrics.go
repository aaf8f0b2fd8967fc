package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one emitted metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of fibersim sees, emitted by every
// workload with -trace 0. A "job" is one operation: a grid cell on the
// grid workloads, one POST /jobs → terminal result on service-mix.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// layerDef is a per-layer metric plus the workloads that exercise its
// layer; a probe is declared only for the workload whose shape it
// reproduces. A workload emits 0 for a metric it does not declare, so
// every traced run carries the same names.
type layerDef struct {
	metricDef
	Workloads []string
}

const (
	wlThreads = "grid-threads"
	wlRanks   = "grid-ranks"
	wlService = "service-mix"
)

var (
	allWorkloads = []string{wlThreads, wlRanks, wlService}
	gridOnly     = []string{wlThreads, wlRanks}
	threadsOnly  = []string{wlThreads}
	ranksOnly    = []string{wlRanks}
	serviceOnly  = []string{wlService}
)

// suiteApps are the miniapps of harness.BenchGrid and of the service
// spec space, in a fixed order.
var suiteApps = []string{"ccsqcd", "ffb", "ffvc", "nicam", "modylas", "ntchem", "mvmc", "ngsa", "stream"}

// perLayer are the traced-run metrics, grouped by fibersim package.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{metricDef{"harness.resolve_ms", "ms"}, allWorkloads},
		{metricDef{"harness.render_ms", "ms"}, gridOnly},
		{metricDef{"miniapps.kernel_charges", "count"}, gridOnly},
		{metricDef{"omp.regions", "count"}, gridOnly},
		{metricDef{"omp.elem_ns", "ns"}, ranksOnly},
		{metricDef{"omp.region_us", "us"}, threadsOnly},
		{metricDef{"mpi.messages", "count"}, gridOnly},
		{metricDef{"mpi.bytes", "B"}, gridOnly},
		{metricDef{"mpi.collectives", "count"}, gridOnly},
		{metricDef{"mpi.sendrecv_us", "us"}, ranksOnly},
		{metricDef{"mpi.allreduce_us", "us"}, ranksOnly},
		{metricDef{"core.charge_ns", "ns"}, ranksOnly},
		{metricDef{"runtime.alloc_gb", "GB"}, allWorkloads},
		{metricDef{"runtime.gc_cpu_s", "s"}, gridOnly},
		{metricDef{"runtime.gc_cycles", "count"}, allWorkloads},
		{metricDef{"jobs.admit_ms", "ms"}, serviceOnly},
		{metricDef{"jobs.queue_wait_ms", "ms"}, serviceOnly},
		{metricDef{"jobs.run_ms", "ms"}, serviceOnly},
		{metricDef{"jobs.journal_ms", "ms"}, serviceOnly},
		{metricDef{"jobs.cache_hit_ratio", "ratio"}, serviceOnly},
		{metricDef{"jobs.journal_append_us", "us"}, serviceOnly},
		{metricDef{"jobs.replay_s", "s"}, serviceOnly},
		{metricDef{"trace.overhead_s", "s"}, allWorkloads},
	}
	for _, app := range suiteApps {
		defs = append(defs, layerDef{metricDef{"miniapps.run_s." + app, "s"}, allWorkloads})
	}
	return defs
}()

// declaredLayers returns the per-layer metrics the workload exercises.
func declaredLayers(workload string) []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		for _, w := range d.Workloads {
			if w == workload {
				out = append(out, d.metricDef)
			}
		}
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs enforces the naming contract on a metric list: valid,
// unique names, each with a unit, and at most max of them.
func checkDefs(defs []metricDef, max int) error {
	if len(defs) == 0 || len(defs) > max {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), max)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s has bad unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble builds the metrics block: every name in all, taking values
// from measured. A name in declared that was not measured is a bug in
// hostbench and an error; an undeclared name (a layer this workload
// does not exercise) reads 0.
func assemble(all, declared []metricDef, measured map[string]float64) (map[string]metricValue, error) {
	want := map[string]bool{}
	for _, d := range declared {
		want[d.Name] = true
	}
	out := map[string]metricValue{}
	for _, d := range all {
		v, ok := measured[d.Name]
		if !ok && want[d.Name] {
			return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
