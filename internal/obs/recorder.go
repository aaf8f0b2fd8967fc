package obs

import (
	"sort"
	"strconv"
	"sync"
)

// Recorder collects the rank tallies of a run and renders them as a
// Profile and as metrics. The launcher hands it the run's tallies once
// the ranks finish, so recording adds no work to the runtime's hot
// paths. It is safe for concurrent use, and a nil Recorder records
// nothing.
type Recorder struct {
	mu      sync.Mutex
	tallies []*Tally
	app     string
	run     string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether the recorder is collecting (non-nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SetMeta attaches the run/app identity used as metric labels.
func (r *Recorder) SetMeta(app, run string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.app, r.run = app, run
	r.mu.Unlock()
}

// Add hands the recorder the tallies of one finished run, in rank
// order.
func (r *Recorder) Add(tallies []*Tally) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tallies = append(r.tallies, tallies...)
	r.mu.Unlock()
}

// Registry returns a metrics registry filled from the recorded
// tallies, one series per rank. A nil recorder returns nil.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := NewRegistry()
	for _, t := range r.tallies {
		// labels returns the series labels: app, run, rank and the pairs kv.
		labels := func(kv ...string) Labels {
			l := Labels{"rank": strconv.Itoa(t.rank)}
			if r.app != "" {
				l["app"] = r.app
			}
			if r.run != "" {
				l["run"] = r.run
			}
			for i := 0; i < len(kv); i += 2 {
				l[kv[i]] = kv[i+1]
			}
			return l
		}
		for _, name := range sortedKeys(t.kernels) {
			k := t.kernels[name]
			l := labels("kernel", name)
			reg.Counter("fibersim_kernel_calls_total", "modelled kernel charges", l).Add(float64(k.Calls))
			for _, res := range Resources() {
				if v := k.Attribution.Get(res); v > 0 {
					rl := labels("kernel", name, "resource", res.String())
					reg.Counter("fibersim_kernel_seconds_total",
						"virtual kernel time by bounding resource", rl).Add(v)
				}
			}
			reg.Histogram("fibersim_kernel_charge_seconds",
				"virtual duration of one kernel charge", nil, l).addCounts(k.hist[:], k.histSum)
		}
		for _, op := range sortedKeys(t.ops) {
			o := t.ops[op]
			l := labels("op", op)
			reg.Counter("fibersim_mpi_ops_total", "MPI operations", l).Add(float64(o.Count))
			if o.Bytes > 0 {
				reg.Counter("fibersim_mpi_bytes_total", "MPI payload bytes", l).Add(float64(o.Bytes))
			}
			if o.WaitSeconds > 0 {
				reg.Counter("fibersim_mpi_wait_seconds_total",
					"virtual time spent inside MPI operations", l).Add(o.WaitSeconds)
			}
		}
		if t.omp.BarrierSeconds > 0 {
			reg.Counter("fibersim_omp_barrier_seconds_total",
				"fork/join and barrier overhead", labels()).Add(t.omp.BarrierSeconds)
		}
		if t.omp.ImbalanceSeconds > 0 {
			reg.Counter("fibersim_omp_imbalance_seconds_total",
				"critical-path excess over mean thread busy time", labels()).Add(t.omp.ImbalanceSeconds)
		}
		if t.log != nil && t.log.Dropped() > 0 {
			reg.Counter("fibersim_trace_dropped_total",
				"timeline events dropped at trace capacity", labels()).Add(float64(t.log.Dropped()))
		}
	}
	return reg
}

// KernelProfile is the folded charge history of one kernel.
type KernelProfile struct {
	Kernel  string  `json:"kernel"`
	Calls   int64   `json:"calls"`
	Iters   float64 `json:"iters"`
	Flops   float64 `json:"flops"`
	Seconds float64 `json:"seconds"`
	// Attribution splits Seconds across the bounding resources.
	Attribution Attribution `json:"attribution"`
	// Dominant is the largest attribution bucket ("compute", "stall",
	// "l1", "l2", "mem").
	Dominant string `json:"dominant"`
	// Category is the analyzer-compatible two-way classification
	// ("compute" or "memory").
	Category string `json:"category"`
}

// CommOp is the folded history of one MPI operation kind.
type CommOp struct {
	Count       int64   `json:"count"`
	Bytes       int64   `json:"bytes"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// PeerFlow is the folded point-to-point traffic between two ranks.
type PeerFlow struct {
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes"`
}

// CommProfile is the communication side of a Profile.
type CommProfile struct {
	// Ops keys per-operation totals by operation name.
	Ops map[string]CommOp `json:"ops,omitempty"`
	// Peers lists point-to-point flows, ordered by (src, dst).
	Peers []PeerFlow `json:"peers,omitempty"`
	// WaitSeconds sums the virtual time spent in all MPI operations.
	WaitSeconds float64 `json:"wait_seconds"`
}

// OMPProfile is the threading-runtime side of a Profile.
type OMPProfile struct {
	Regions          int64   `json:"regions"`
	BarrierSeconds   float64 `json:"barrier_seconds"`
	ImbalanceSeconds float64 `json:"imbalance_seconds"`
}

// Profile is the folded observability record of one run.
type Profile struct {
	// Kernels is ordered by time, largest first (ties by name).
	Kernels []KernelProfile `json:"kernels,omitempty"`
	Comm    CommProfile     `json:"comm"`
	OMP     OMPProfile      `json:"omp"`
	// TraceDropped counts timeline events lost at trace capacity.
	TraceDropped int64 `json:"trace_dropped,omitempty"`
}

// KernelSeconds sums the attributed kernel time across all kernels.
func (p Profile) KernelSeconds() float64 {
	var t float64
	for _, k := range p.Kernels {
		t += k.Seconds
	}
	return t
}

// Kernel returns the profile entry for one kernel name.
func (p Profile) Kernel(name string) (KernelProfile, bool) {
	for _, k := range p.Kernels {
		if k.Kernel == name {
			return k, true
		}
	}
	return KernelProfile{}, false
}

// Profile folds the recorded tallies into a Profile snapshot. A nil
// recorder returns an empty profile.
func (r *Recorder) Profile() Profile {
	if r == nil {
		return Profile{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Fold(r.tallies).Profile()
}

// Profile renders the totals as a Profile.
func (tot Totals) Profile() Profile {
	var p Profile
	for _, name := range sortedKeys(tot.Kernels) {
		k := tot.Kernels[name]
		p.Kernels = append(p.Kernels, KernelProfile{
			Kernel:      name,
			Calls:       k.Calls,
			Iters:       k.Iters,
			Flops:       k.Flops,
			Seconds:     k.Attribution.Total(),
			Attribution: k.Attribution,
			Dominant:    k.Attribution.Dominant().String(),
			Category:    k.Attribution.Category().String(),
		})
	}
	sort.Slice(p.Kernels, func(i, j int) bool {
		//fiberlint:ignore floatcmp exact tie-break keeps the ordering deterministic
		if p.Kernels[i].Seconds != p.Kernels[j].Seconds {
			return p.Kernels[i].Seconds > p.Kernels[j].Seconds
		}
		return p.Kernels[i].Kernel < p.Kernels[j].Kernel
	})
	if len(tot.Ops) > 0 {
		p.Comm.Ops = make(map[string]CommOp, len(tot.Ops))
		for _, op := range sortedKeys(tot.Ops) {
			p.Comm.Ops[op] = tot.Ops[op]
			p.Comm.WaitSeconds += tot.Ops[op].WaitSeconds
		}
	}
	p.Comm.Peers = tot.Peers
	p.OMP = tot.OMP
	p.TraceDropped = tot.TraceDropped
	return p
}
