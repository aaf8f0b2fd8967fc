package omp

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fibersim/internal/arch"
	"fibersim/internal/obs"
	"fibersim/internal/vtime"
)

func team(t *testing.T, cores []int) *Team {
	t.Helper()
	tm, err := NewTeam(arch.MustLookup("a64fx"), cores, &vtime.Clock{}, DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func coresRange(n, stride int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * stride
	}
	return out
}

func TestNewTeamValidation(t *testing.T) {
	m := arch.MustLookup("a64fx")
	clk := &vtime.Clock{}
	if _, err := NewTeam(m, nil, clk, DefaultOverheads()); err == nil {
		t.Error("empty team must fail")
	}
	if _, err := NewTeam(m, []int{99}, clk, DefaultOverheads()); err == nil {
		t.Error("invalid core must fail")
	}
	if _, err := NewTeam(m, []int{3, 3}, clk, DefaultOverheads()); err == nil {
		t.Error("duplicate core must fail")
	}
	if _, err := NewTeam(m, []int{0}, nil, DefaultOverheads()); err == nil {
		t.Error("nil clock must fail")
	}
}

func TestTeamAccessors(t *testing.T) {
	tm := team(t, []int{0, 12, 24})
	if tm.Threads() != 3 {
		t.Errorf("Threads = %d", tm.Threads())
	}
	if tm.DomainsSpanned() != 3 {
		t.Errorf("DomainsSpanned = %d, want 3", tm.DomainsSpanned())
	}
	c := tm.Cores()
	c[0] = 99 // must be a copy
	if tm.Cores()[0] != 0 {
		t.Error("Cores() must return a copy")
	}
}

// coverageCheck runs a loop and verifies every index ran exactly once.
func coverageCheck(t *testing.T, tm *Team, s Schedule, n int) *Stats {
	t.Helper()
	counts := make([]int64, n)
	st := tm.ParallelFor(s, n, func(_, i int) {
		atomic.AddInt64(&counts[i], 1)
	}, nil)
	for i, c := range counts {
		if c != 1 {
			t.Errorf("%v n=%d: index %d executed %d times", s, n, i, c)
		}
	}
	var total int64
	for _, it := range st.ThreadIters {
		total += it
	}
	if total != int64(n) {
		t.Errorf("%v: thread iteration counts sum to %d, want %d", s, total, n)
	}
	return st
}

func TestSchedulesCoverage(t *testing.T) {
	tm := team(t, coresRange(8, 1))
	scheds := []Schedule{
		{Kind: Static}, {Kind: Static, Chunk: 3},
		{Kind: Dynamic}, {Kind: Dynamic, Chunk: 5},
		{Kind: Guided}, {Kind: Guided, Chunk: 2},
	}
	for _, s := range scheds {
		for _, n := range []int{0, 1, 7, 8, 64, 129} {
			coverageCheck(t, tm, s, n)
		}
	}
}

func TestScheduleCoverageProperty(t *testing.T) {
	tm := team(t, coresRange(6, 2))
	f := func(kind uint8, chunk uint8, n uint16) bool {
		s := Schedule{Kind: ScheduleKind(kind % 3), Chunk: int(chunk % 9)}
		size := int(n % 300)
		counts := make([]int64, size)
		tm.ParallelFor(s, size, func(_, i int) {
			atomic.AddInt64(&counts[i], 1)
		}, nil)
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStaticBalancesIterations(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	st := coverageCheck(t, tm, Schedule{Kind: Static}, 10)
	// 10 over 4 threads: 3,3,2,2.
	want := []int64{3, 3, 2, 2}
	for i, w := range want {
		if st.ThreadIters[i] != w {
			t.Errorf("thread %d iters = %d, want %d", i, st.ThreadIters[i], w)
		}
	}
}

func TestVirtualTimeChargedMaxPlusOverhead(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	// Uniform 1ms per iteration, 8 iterations on 4 threads: 2ms busy.
	st := tm.ParallelFor(Schedule{Kind: Static}, 8, nil, func(int) float64 { return 1e-3 })
	if math.Abs(st.Elapsed-(2e-3+st.Overhead)) > 1e-12 {
		t.Errorf("Elapsed = %g, want 2ms + overhead %g", st.Elapsed, st.Overhead)
	}
	if got := tm.Clock().Now(); math.Abs(got-st.Elapsed) > 1e-12 {
		t.Errorf("clock advanced %g, want %g", got, st.Elapsed)
	}
	if tm.Clock().Spent(vtime.Compute) <= 0 || tm.Clock().Spent(vtime.Runtime) <= 0 {
		t.Error("breakdown should show compute and runtime time")
	}
}

func TestDynamicBeatsStaticOnSkewedWork(t *testing.T) {
	// Iteration i costs i; static contiguous blocks put all heavy
	// iterations on the last thread, dynamic spreads them.
	costs := func(i int) float64 { return float64(i) * 1e-6 }
	const n = 256
	stat := team(t, coresRange(8, 1)).ParallelFor(Schedule{Kind: Static}, n, nil, costs)
	dyn := team(t, coresRange(8, 1)).ParallelFor(Schedule{Kind: Dynamic, Chunk: 4}, n, nil, costs)
	if dyn.Elapsed >= stat.Elapsed {
		t.Errorf("dynamic (%g) should beat static (%g) on skewed work", dyn.Elapsed, stat.Elapsed)
	}
	if stat.Imbalance() <= dyn.Imbalance() {
		t.Errorf("static imbalance (%g) should exceed dynamic (%g)", stat.Imbalance(), dyn.Imbalance())
	}
}

func TestDynamicGrabCostCharged(t *testing.T) {
	tm := team(t, coresRange(2, 1))
	st := tm.ParallelFor(Schedule{Kind: Dynamic, Chunk: 1}, 100, nil, nil)
	var busy float64
	for _, v := range st.ThreadTime {
		busy += v
	}
	want := 100 * DefaultOverheads().DynamicGrab
	if math.Abs(busy-want) > 1e-12 {
		t.Errorf("total grab cost = %g, want %g", busy, want)
	}
}

func TestCrossDomainOverheadLarger(t *testing.T) {
	// Same team size; one binding inside a CMG, one spanning 4 CMGs.
	inside := team(t, []int{0, 1, 2, 3})
	across := team(t, []int{0, 12, 24, 36})
	stIn := inside.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)
	stAcross := across.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)
	if stAcross.Overhead <= stIn.Overhead {
		t.Errorf("cross-domain overhead (%g) should exceed within-domain (%g)",
			stAcross.Overhead, stIn.Overhead)
	}
	ratio := stAcross.Overhead / stIn.Overhead
	if math.Abs(ratio-DefaultOverheads().CrossDomainFactor) > 1e-9 {
		t.Errorf("overhead ratio = %g, want %g", ratio, DefaultOverheads().CrossDomainFactor)
	}
}

func TestSingleThreadNoOverhead(t *testing.T) {
	tm := team(t, []int{5})
	st := tm.ParallelFor(Schedule{Kind: Static}, 10, nil, func(int) float64 { return 1e-3 })
	if st.Overhead != 0 {
		t.Errorf("single-thread overhead = %g, want 0", st.Overhead)
	}
	if math.Abs(st.Elapsed-10e-3) > 1e-12 {
		t.Errorf("Elapsed = %g, want 10ms", st.Elapsed)
	}
	before := tm.Clock().Now()
	tm.Barrier()
	if tm.Clock().Now() != before {
		t.Error("single-thread barrier should be free")
	}
}

func TestBarrierCharges(t *testing.T) {
	tm := team(t, coresRange(12, 1))
	before := tm.Clock().Now()
	tm.Barrier()
	if tm.Clock().Now() <= before {
		t.Error("barrier should advance the clock")
	}
	if tm.Clock().Spent(vtime.Runtime) <= 0 {
		t.Error("barrier time should be attributed to runtime")
	}
}

func TestCharge(t *testing.T) {
	tm := team(t, []int{0})
	tm.Charge(2.5, vtime.Memory)
	if tm.Clock().Spent(vtime.Memory) != 2.5 {
		t.Error("Charge did not attribute to memory")
	}
}

func TestScheduleString(t *testing.T) {
	cases := map[string]Schedule{
		"static":   {Kind: Static},
		"static,4": {Kind: Static, Chunk: 4},
		"dynamic":  {Kind: Dynamic},
		"guided,2": {Kind: Guided, Chunk: 2},
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestZeroIterations(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	st := tm.ParallelFor(Schedule{Kind: Guided}, 0, func(_, _ int) {
		t.Error("body must not run for n=0")
	}, nil)
	if st.Elapsed != st.Overhead {
		t.Errorf("empty loop elapsed = %g, want overhead only %g", st.Elapsed, st.Overhead)
	}
}

func TestGuidedChunksDecrease(t *testing.T) {
	_, shared := chunksFor(Schedule{Kind: Guided}, 1000, 4)
	if len(shared) < 3 {
		t.Fatalf("guided produced %d chunks", len(shared))
	}
	first := shared[0].hi - shared[0].lo
	last := shared[len(shared)-1].hi - shared[len(shared)-1].lo
	if first <= last {
		t.Errorf("guided chunks should shrink: first=%d last=%d", first, last)
	}
	// Chunks tile [0,n) exactly.
	pos := 0
	for _, c := range shared {
		if c.lo != pos || c.hi <= c.lo {
			t.Fatalf("guided chunks do not tile: %v at pos %d", c, pos)
		}
		pos = c.hi
	}
	if pos != 1000 {
		t.Errorf("guided chunks end at %d, want 1000", pos)
	}
}

func TestMoreVirtualThreadsThanWorkers(t *testing.T) {
	// 48 virtual threads must execute correctly even when GOMAXPROCS is
	// smaller; virtual timing still reflects 48-way parallelism.
	tm := team(t, coresRange(48, 1))
	st := tm.ParallelFor(Schedule{Kind: Static}, 480, nil, func(int) float64 { return 1e-3 })
	if math.Abs(st.Elapsed-st.Overhead-10e-3) > 1e-9 {
		t.Errorf("48-thread elapsed = %g, want 10ms busy", st.Elapsed-st.Overhead)
	}
}

func TestChunksForUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown schedule kind must panic")
		}
	}()
	chunksFor(Schedule{Kind: ScheduleKind(9)}, 10, 2)
}

func TestObserveRecordsRegions(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	rec := obs.NewRecorder()
	tally := obs.NewTally(3, nil)
	tm.Observe(tally)

	// Imbalanced static loop: iteration 0 is 10x the rest.
	tm.ParallelFor(Schedule{Kind: Static}, 8, nil, func(i int) float64 {
		if i == 0 {
			return 10e-6
		}
		return 1e-6
	})
	tm.Barrier()

	rec.Add([]*obs.Tally{tally})
	p := rec.Profile()
	if p.OMP.Regions != 2 {
		t.Errorf("regions = %d, want 2 (loop + barrier)", p.OMP.Regions)
	}
	if p.OMP.BarrierSeconds <= 0 {
		t.Errorf("barrier seconds = %g, want > 0", p.OMP.BarrierSeconds)
	}
	if p.OMP.ImbalanceSeconds <= 0 {
		t.Errorf("imbalance seconds = %g, want > 0", p.OMP.ImbalanceSeconds)
	}
}

func TestObserveNilRecorderIsSafe(t *testing.T) {
	tm := team(t, coresRange(2, 1))
	tm.Observe(nil)
	tm.ParallelFor(Schedule{Kind: Static}, 4, nil, nil)
	tm.Barrier()
}

func TestInjectPerturbsRegions(t *testing.T) {
	tm := team(t, coresRange(4, 1))
	costs := func(i int) float64 { return 1e-6 }

	clean := tm.ParallelFor(Schedule{Kind: Static}, 64, nil, costs)
	if clean.Fault != 0 {
		t.Fatalf("clean region has Fault = %g", clean.Fault)
	}
	before := tm.Clock().Breakdown()

	// Double the critical path: the excess must land in Stats.Fault and
	// be charged to the clock as runtime, not compute.
	tm.Inject(func(start, d float64) float64 { return 2 * d })
	faulty := tm.ParallelFor(Schedule{Kind: Static}, 64, nil, costs)
	after := tm.Clock().Breakdown()

	if faulty.Fault <= 0 {
		t.Fatalf("injected region Fault = %g, want > 0", faulty.Fault)
	}
	if math.Abs(faulty.Elapsed-(clean.Elapsed+faulty.Fault)) > 1e-15 {
		t.Fatalf("Elapsed %g != clean %g + fault %g", faulty.Elapsed, clean.Elapsed, faulty.Fault)
	}
	dCompute := after.Get(vtime.Compute) - before.Get(vtime.Compute)
	dRuntime := after.Get(vtime.Runtime) - before.Get(vtime.Runtime)
	cleanCompute := clean.Elapsed - clean.Overhead
	if math.Abs(dCompute-cleanCompute) > 1e-15 {
		t.Fatalf("compute advanced %g, want clean critical path %g", dCompute, cleanCompute)
	}
	if math.Abs(dRuntime-(faulty.Fault+faulty.Overhead)) > 1e-15 {
		t.Fatalf("runtime advanced %g, want fault %g + overhead %g", dRuntime, faulty.Fault, faulty.Overhead)
	}

	tm.Inject(nil)
	if again := tm.ParallelFor(Schedule{Kind: Static}, 64, nil, costs); again.Fault != 0 {
		t.Fatalf("after Inject(nil), Fault = %g", again.Fault)
	}
}
