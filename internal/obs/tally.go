package obs

import (
	"sort"
	"strings"

	"fibersim/internal/core"
	"fibersim/internal/trace"
)

// chargeBuckets bounds the kernel-charge duration histogram.
var chargeBuckets = TimeBuckets()

// Tally is one rank's instrumentation seam. The rank's goroutine owns
// it: the MPI runtime, the OpenMP team and the miniapp launcher each
// make one call per operation, with no lock and, once a key has been
// seen, no allocation. Nothing reads a tally until its rank has
// finished; Fold and the Recorder then read all of a run's tallies in
// rank order. Every method is a no-op on a nil receiver.
type Tally struct {
	rank    int
	log     *trace.Log // the rank's timeline; nil when untraced
	kernels map[string]*KernelTally
	ops     map[string]*CommOp
	sends   map[int]*PeerFlow // point-to-point traffic by destination
	omp     OMPProfile
}

// KernelTally is the charge history of one kernel.
type KernelTally struct {
	Calls int64
	Iters float64
	// Seconds sums the charged time of each call.
	Seconds float64
	Flops   float64
	// Attribution splits the charged time across the bounding resources.
	Attribution Attribution

	hist    [numTimeBuckets + 1]int64 // per-bucket call counts, +Inf last
	histSum float64                   // sum of the per-call attribution totals
}

func (k *KernelTally) add(o KernelTally) {
	k.Calls += o.Calls
	k.Iters += o.Iters
	k.Seconds += o.Seconds
	k.Flops += o.Flops
	k.Attribution = k.Attribution.Add(o.Attribution)
	for i, n := range o.hist {
		k.hist[i] += n
	}
	k.histSum += o.histSum
}

// NewTally returns an empty tally for the given global rank, tracing
// into log when it is non-nil.
func NewTally(rank int, log *trace.Log) *Tally {
	return &Tally{
		rank:    rank,
		log:     log,
		kernels: map[string]*KernelTally{},
		ops:     map[string]*CommOp{},
		sends:   map[int]*PeerFlow{},
	}
}

func (t *Tally) trace(name, cat string, start, end float64, flow uint64, kind trace.FlowPhase) {
	if t.log != nil {
		t.log.Add(trace.Event{Name: name, Cat: cat, Rank: t.rank, Start: start, End: end, Flow: flow, FlowKind: kind})
	}
}

// Kernel records one modelled charge of iters iterations of a kernel,
// estimated as est, that ran from start to end on the rank's clock.
func (t *Tally) Kernel(name string, iters float64, est core.Estimate, start, end float64) {
	if t == nil {
		return
	}
	k, ok := t.kernels[name]
	if !ok {
		k = &KernelTally{}
		t.kernels[name] = k
	}
	attr := Attribute(est)
	d := attr.Total()
	k.Calls++
	k.Iters += iters
	k.Seconds += est.Total
	k.Flops += est.Flops
	k.Attribution = k.Attribution.Add(attr)
	k.hist[sort.SearchFloat64s(chargeBuckets, d)]++
	k.histSum += d
	t.trace(name, "kernel", start, end, 0, trace.FlowNone)
}

// MPI records one MPI operation that ran from start to end on the
// rank's clock. name is "send", "recv" or a collective's signature
// ("allreduce/sum/n=4"), whose part before the first '/' keys the
// totals. peer is the remote global rank (-1 for collectives) and
// bytes the payload; flow and kind link a send slice to its receive
// slice on the timeline.
func (t *Tally) MPI(name string, peer int, bytes int64, start, end float64, flow uint64, kind trace.FlowPhase) {
	if t == nil {
		return
	}
	op, _, _ := strings.Cut(name, "/")
	o, ok := t.ops[op]
	if !ok {
		o = &CommOp{}
		t.ops[op] = o
	}
	o.Count++
	o.Bytes += bytes
	o.WaitSeconds += end - start
	// Sends carry the flow accounting, so a message counts once per peer.
	if op == "send" && bytes > 0 {
		p, ok := t.sends[peer]
		if !ok {
			p = &PeerFlow{Src: t.rank, Dst: peer}
			t.sends[peer] = p
		}
		p.Count++
		p.Bytes += bytes
	}
	t.trace(name, "mpi", start, end, flow, kind)
}

// OMP records one parallel region or explicit barrier: overhead is its
// fork/join or barrier cost, imbalance the time its critical path
// exceeded the mean thread busy time. A negative imbalance is a
// rounding remainder and counts as none.
func (t *Tally) OMP(overhead, imbalance float64) {
	if t == nil {
		return
	}
	t.omp.Regions++
	t.omp.BarrierSeconds += overhead
	if imbalance > 0 {
		t.omp.ImbalanceSeconds += imbalance
	}
}

// Totals is the fold of a run's rank tallies.
type Totals struct {
	Kernels map[string]KernelTally
	Ops     map[string]CommOp
	// Peers lists point-to-point flows, ordered by (src, dst).
	Peers        []PeerFlow
	OMP          OMPProfile
	TraceDropped int64
}

// Fold sums the tallies in the order given (rank order) and each
// tally's keys in sorted order, so every float total is the same from
// run to run.
func Fold(tallies []*Tally) Totals {
	tot := Totals{Kernels: map[string]KernelTally{}, Ops: map[string]CommOp{}}
	peers := map[[2]int]PeerFlow{}
	for _, t := range tallies {
		for _, name := range sortedKeys(t.kernels) {
			acc := tot.Kernels[name]
			acc.add(*t.kernels[name])
			tot.Kernels[name] = acc
		}
		for _, name := range sortedKeys(t.ops) {
			acc, o := tot.Ops[name], t.ops[name]
			acc.Count += o.Count
			acc.Bytes += o.Bytes
			acc.WaitSeconds += o.WaitSeconds
			tot.Ops[name] = acc
		}
		for _, p := range t.sends {
			acc := peers[[2]int{p.Src, p.Dst}]
			acc.Src, acc.Dst = p.Src, p.Dst
			acc.Count += p.Count
			acc.Bytes += p.Bytes
			peers[[2]int{p.Src, p.Dst}] = acc
		}
		tot.OMP.Regions += t.omp.Regions
		tot.OMP.BarrierSeconds += t.omp.BarrierSeconds
		tot.OMP.ImbalanceSeconds += t.omp.ImbalanceSeconds
		if t.log != nil {
			tot.TraceDropped += t.log.Dropped()
		}
	}
	for _, p := range peers {
		tot.Peers = append(tot.Peers, p)
	}
	sort.Slice(tot.Peers, func(i, j int) bool {
		if tot.Peers[i].Src != tot.Peers[j].Src {
			return tot.Peers[i].Src < tot.Peers[j].Src
		}
		return tot.Peers[i].Dst < tot.Peers[j].Dst
	})
	return tot
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
