package obs

import (
	"math"
	"sync"
	"testing"

	"fibersim/internal/core"
	"fibersim/internal/trace"
	"fibersim/internal/vtime"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder must report disabled")
	}
	r.SetMeta("x", "y")
	var tl *Tally
	tl.Kernel("k", 1, core.Estimate{Compute: 1, Total: 1, Flops: 1}, 0, 1)
	tl.MPI("send", 1, 8, 0, 0, 0, trace.FlowNone)
	tl.OMP(1e-6, 0)
	r.Add([]*Tally{tl})
	if p := r.Profile(); len(p.Kernels) != 0 || p.OMP.Regions != 0 {
		t.Errorf("nil recorder profile not empty: %+v", p)
	}
	if r.Registry() != nil {
		t.Error("nil recorder must have nil registry")
	}
}

func TestAttribute(t *testing.T) {
	est := core.Estimate{
		Compute:     1.0,
		Memory:      3.0,
		Total:       3.0 + 0.15, // longer + (1-overlap)*shorter at 0.85 overlap
		Bottleneck:  vtime.Memory,
		StallFactor: 1.25,
		CacheLevel:  3,
	}
	a := Attribute(est)
	if rel := relErr(a.Total(), est.Total); rel > 1e-12 {
		t.Errorf("attribution total %g, want %g (rel %g)", a.Total(), est.Total, rel)
	}
	// Compute share splits 1/1.25 base vs stall remainder.
	computeShare := est.Total * est.Compute / (est.Compute + est.Memory)
	if rel := relErr(a.Compute, computeShare/1.25); rel > 1e-12 {
		t.Errorf("base compute = %g", a.Compute)
	}
	if rel := relErr(a.Stall, computeShare-computeShare/1.25); rel > 1e-12 {
		t.Errorf("stall = %g", a.Stall)
	}
	if a.L1 != 0 || a.L2 != 0 {
		t.Error("memory time must land on the serving level only")
	}
	if a.Dominant() != ResMem {
		t.Errorf("dominant = %s, want mem", a.Dominant())
	}
	if a.Category() != est.Bottleneck {
		t.Errorf("category = %s, analyzer says %s", a.Category(), est.Bottleneck)
	}

	// Compute-bound at L1: dominant flips, category matches.
	est2 := core.Estimate{
		Compute: 5, Memory: 1, Total: 5.15,
		Bottleneck: vtime.Compute, StallFactor: 1, CacheLevel: 1,
	}
	a2 := Attribute(est2)
	if a2.Stall != 0 {
		t.Errorf("stall = %g, want 0 at factor 1", a2.Stall)
	}
	if a2.Dominant() != ResCompute || a2.Category() != vtime.Compute {
		t.Errorf("dominant=%s category=%s", a2.Dominant(), a2.Category())
	}
	if a2.L1 == 0 || a2.Mem != 0 {
		t.Errorf("L1 traffic misplaced: %+v", a2)
	}

	if z := Attribute(core.Estimate{}); z.Total() != 0 {
		t.Errorf("zero estimate must attribute nothing, got %+v", z)
	}
}

// TestRecorderConcurrent has 8 ranks fill their own tallies
// concurrently, then folds them through a Recorder: the totals, the
// per-peer de-duplication and the per-rank metrics must all agree.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	r.SetMeta("stream", "test")
	const ranks, per = 8, 100
	// Splits 4 µs as 1 µs compute and 3 µs memory.
	triad := core.Estimate{Compute: 1e-6, Memory: 3e-6, Total: 4e-6, Flops: 20, StallFactor: 1, CacheLevel: 3}
	tallies := make([]*Tally, ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		tallies[rank] = NewTally(rank, nil)
		wg.Add(1)
		go func(tl *Tally) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tl.Kernel("triad", 10, triad, 0, 4e-6)
				tl.MPI("send", (rank+1)%ranks, 64, 0, 0, 0, trace.FlowNone)
				tl.MPI("recv", (rank+ranks-1)%ranks, 64, 0, 1e-7, 0, trace.FlowNone)
				tl.OMP(2e-7, 1e-8)
			}
		}(tallies[rank])
	}
	wg.Wait()
	r.Add(tallies)

	p := r.Profile()
	if len(p.Kernels) != 1 {
		t.Fatalf("got %d kernels", len(p.Kernels))
	}
	k := p.Kernels[0]
	if k.Calls != ranks*per {
		t.Errorf("calls = %d, want %d", k.Calls, ranks*per)
	}
	if rel := relErr(k.Seconds, float64(ranks*per)*4e-6); rel > 1e-9 {
		t.Errorf("seconds = %g", k.Seconds)
	}
	if k.Dominant != "mem" || k.Category != "memory" {
		t.Errorf("dominant=%s category=%s", k.Dominant, k.Category)
	}
	if got := p.Comm.Ops["send"].Count; got != ranks*per {
		t.Errorf("sends = %d", got)
	}
	if got := p.Comm.Ops["recv"].WaitSeconds; relErr(got, float64(ranks*per)*1e-7) > 1e-9 {
		t.Errorf("recv wait = %g", got)
	}
	// Each rank sends to one peer; recv must not double-count flows.
	if len(p.Comm.Peers) != ranks {
		t.Errorf("got %d peer flows, want %d", len(p.Comm.Peers), ranks)
	}
	for _, pf := range p.Comm.Peers {
		if pf.Count != per || pf.Bytes != per*64 {
			t.Errorf("peer flow %+v", pf)
		}
	}
	if p.OMP.Regions != ranks*per {
		t.Errorf("omp regions = %d", p.OMP.Regions)
	}

	// The registry saw the same totals.
	calls := r.Registry().Counter("fibersim_kernel_calls_total", "",
		Labels{"app": "stream", "run": "test", "kernel": "triad", "rank": "0"})
	if calls.Value() != per {
		t.Errorf("rank-0 metric calls = %g, want %d", calls.Value(), per)
	}
}

func TestProfileOrderingAndLookup(t *testing.T) {
	r := NewRecorder()
	log := trace.NewLog(2)
	tl := NewTally(0, log)
	tl.Kernel("minor", 1, core.Estimate{Compute: 1e-6, Total: 1e-6, Flops: 1, StallFactor: 1}, 0, 1e-6)
	tl.Kernel("major", 1, core.Estimate{Memory: 5e-6, Total: 5e-6, Flops: 1, CacheLevel: 3}, 1e-6, 6e-6)
	for i := 0; i < 7; i++ { // the two charges filled the log
		log.Add(trace.Event{})
	}
	r.Add([]*Tally{tl})
	p := r.Profile()
	if p.Kernels[0].Kernel != "major" {
		t.Errorf("kernels not time-ordered: %v", p.Kernels)
	}
	if _, ok := p.Kernel("minor"); !ok {
		t.Error("Kernel lookup failed")
	}
	if p.TraceDropped != 7 {
		t.Errorf("trace dropped = %d", p.TraceDropped)
	}
	if math.Abs(p.KernelSeconds()-6e-6) > 1e-18 {
		t.Errorf("kernel seconds = %g", p.KernelSeconds())
	}
}
