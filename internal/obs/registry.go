package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimensions to a metric; the registry keys series by
// run/app/rank/kernel-style label sets. A nil Labels is the empty set.
type Labels map[string]string

// signature renders labels canonically (sorted keys) so the same set
// always resolves to the same series.
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			_ = b.WriteByte(',') // strings.Builder never fails
		}
		_, _ = fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// metricKind discriminates the series types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// atomicFloat is a float64 with atomic add/set, the standard
// bits-CAS construction.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing series.
type Counter struct{ v atomicFloat }

// Add increases the counter; negative deltas panic (counters only go
// up — use a Gauge for values that move both ways).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("obs: negative counter increment %g", v))
	}
	c.v.Add(v)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a series that can move both ways.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add moves the value by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations in fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics); an implicit +Inf bucket catches
// the rest.
type Histogram struct {
	uppers  []float64 // sorted inclusive upper bounds
	buckets []atomic.Int64
	inf     atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound >= v.
	i := sort.SearchFloat64s(h.uppers, v)
	if i < len(h.uppers) {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records n identical samples of value v in one shot. Bulk
// feeders (runtime/metrics histogram deltas) use it to replay a bucket
// count without n separate Observe calls. n <= 0 is a no-op.
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	if i < len(h.uppers) {
		h.buckets[i].Add(n)
	} else {
		h.inf.Add(n)
	}
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// addCounts adds pre-bucketed observations: counts holds one count
// per bucket with the +Inf count last, and sum their total.
func (h *Histogram) addCounts(counts []int64, sum float64) {
	for i, n := range counts {
		if i < len(h.buckets) {
			h.buckets[i].Add(n)
		} else {
			h.inf.Add(n)
		}
		h.count.Add(n)
	}
	h.sum.Add(sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Buckets returns the upper bounds and the cumulative count at each
// bound (Prometheus bucket semantics), excluding +Inf.
func (h *Histogram) Buckets() (uppers []float64, cumulative []int64) {
	uppers = append([]float64(nil), h.uppers...)
	cumulative = make([]int64, len(h.buckets))
	var run int64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cumulative[i] = run
	}
	return uppers, cumulative
}

// LogBuckets returns n upper bounds in a geometric series starting at
// start with the given factor: the fixed log-scale bucketing every
// histogram in the registry uses.
func LogBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: invalid log buckets start=%g factor=%g n=%d", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// numTimeBuckets is the bucket count of TimeBuckets.
const numTimeBuckets = 12

// TimeBuckets is the default bucketing for virtual-time histograms:
// decades from 1 ns to 100 s.
func TimeBuckets() []float64 { return LogBuckets(1e-9, 10, numTimeBuckets) }

// series is one labelled instance of a metric family.
type series struct {
	sig     string
	labels  Labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups series that share a name, kind and help string.
type family struct {
	name   string
	kind   metricKind
	help   string
	series map[string]*series
}

// Registry is a concurrency-safe collection of metric families. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup finds or creates the series for (name, kind, labels),
// enforcing that a name keeps one kind for its lifetime.
func (r *Registry) lookup(name, help string, kind metricKind, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, kind: kind, help: help, series: map[string]*series{}}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	sig := labels.signature()
	s, ok := fam.series[sig]
	if !ok {
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{sig: sig, labels: cp}
		fam.series[sig] = s
	}
	return s
}

// Counter returns the counter named name with the given labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge named name with the given labels.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram named name with the given labels and
// upper bounds (nil picks TimeBuckets). All series of one family share
// the first registration's buckets.
func (r *Registry) Histogram(name, help string, uppers []float64, labels Labels) *Histogram {
	if uppers == nil {
		uppers = TimeBuckets()
	}
	if !sort.Float64sAreSorted(uppers) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted", name))
	}
	s := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = &Histogram{
			uppers:  append([]float64(nil), uppers...),
			buckets: make([]atomic.Int64, len(uppers)),
		}
	}
	return s.hist
}

// sortedFamilies snapshots the families in name order, each with its
// series in label-signature order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}

// promLabels renders a label set in exposition syntax, with extras
// appended (used for the histogram "le" label).
func promLabels(l Labels, extraK, extraV string) string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, l[k]))
	}
	if extraK != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extraK, extraV))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// fmtValue renders a sample the way the Prometheus text format does.
func fmtValue(v float64) string {
	//fiberlint:ignore floatcmp exact integrality test selects the integer rendering
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format, deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range r.sortedFamilies() {
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.kind); err != nil {
			return err
		}
		for _, s := range fam.sortedSeries() {
			var err error
			switch fam.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %s\n", fam.name, promLabels(s.labels, "", ""), fmtValue(s.counter.Value()))
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", fam.name, promLabels(s.labels, "", ""), fmtValue(s.gauge.Value()))
			case kindHistogram:
				uppers, cum := s.hist.Buckets()
				for i, up := range uppers {
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
						fam.name, promLabels(s.labels, "le", fmtValue(up)), cum[i]); err != nil {
						return err
					}
				}
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					fam.name, promLabels(s.labels, "le", "+Inf"), s.hist.Count()); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %s\n",
					fam.name, promLabels(s.labels, "", ""), fmtValue(s.hist.Sum())); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n",
					fam.name, promLabels(s.labels, "", ""), s.hist.Count())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// MetricSample is the JSON form of one series.
type MetricSample struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	// Histogram-only fields.
	Count   int64     `json:"count,omitempty"`
	Uppers  []float64 `json:"uppers,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Samples snapshots every series (for JSON export and tests), in the
// same deterministic order as the text exposition.
func (r *Registry) Samples() []MetricSample {
	var out []MetricSample
	for _, fam := range r.sortedFamilies() {
		for _, s := range fam.sortedSeries() {
			ms := MetricSample{Name: fam.name, Kind: fam.kind.String(), Labels: s.labels}
			switch fam.kind {
			case kindCounter:
				ms.Value = s.counter.Value()
			case kindGauge:
				ms.Value = s.gauge.Value()
			case kindHistogram:
				ms.Value = s.hist.Sum()
				ms.Count = s.hist.Count()
				ms.Uppers, ms.Buckets = s.hist.Buckets()
			}
			out = append(out, ms)
		}
	}
	return out
}

// WriteJSON writes the registry as a JSON array of samples.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Samples())
}
