// Package mpi is a functional, in-process MPI runtime.
//
// Ranks are goroutines; messages really travel between them, so
// matching, ordering, deadlock and misuse are all observable in tests.
// Timing is virtual: every rank owns a vtime.Clock, point-to-point
// completion follows the conservative rule
//
//	recvDone = max(recvClock, sendClock + fabric.PointToPoint(bytes))
//
// and collectives synchronize all clocks to max(clocks) + an analytic
// cost from internal/simnet. Ranks are placed on simulated nodes
// (Config.RanksPerNode); intra-node pairs use the shared-memory fabric,
// inter-node pairs the machine's fabric.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fibersim/internal/fault"
	"fibersim/internal/obs"
	"fibersim/internal/simnet"
	"fibersim/internal/trace"
	"fibersim/internal/vtime"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// ProcNull is the null process: Send to it is a no-op and Recv from it
// returns immediately with no data, the standard idiom for
// non-periodic halo exchanges at domain boundaries.
const ProcNull = -2

// Op is a reduction operator.
type Op int

const (
	// OpSum adds elements.
	OpSum Op = iota
	// OpMax takes the element-wise maximum.
	OpMax
	// OpMin takes the element-wise minimum.
	OpMin
	// OpProd multiplies elements.
	OpProd
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

func (o Op) apply(acc, v float64) float64 {
	switch o {
	case OpSum:
		return acc + v
	case OpMax:
		if v > acc {
			return v
		}
		return acc
	case OpMin:
		if v < acc {
			return v
		}
		return acc
	case OpProd:
		return acc * v
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(o)))
	}
}

// ErrTimeout is returned when a blocked operation exceeds the
// configured real-time watchdog (usually indicating deadlock or a
// missing partner).
var ErrTimeout = errors.New("mpi: operation timed out (deadlock or missing partner?)")

// Config describes an MPI world.
type Config struct {
	// Ranks is the number of MPI processes.
	Ranks int
	// RanksPerNode places ranks onto simulated nodes; 0 means all ranks
	// share one node.
	RanksPerNode int
	// Fabric is the inter-node network; nil defaults to "tofud".
	Fabric *simnet.Fabric
	// Intra is the intra-node transport; nil defaults to "shm".
	Intra *simnet.Fabric
	// Timeout is the real-time watchdog for blocked operations; zero
	// defaults to 30 s.
	Timeout time.Duration
	// ReduceGamma is the per-byte local combine cost charged inside
	// reductions; zero defaults to 0.25 ns/byte.
	ReduceGamma float64
	// PairScale, when non-nil, multiplies the point-to-point cost
	// between two global ranks — the hook the launcher uses to make
	// messages between ranks in different NUMA domains slightly more
	// expensive than within a domain.
	PairScale func(src, dst int) float64
	// Topology, when non-nil, gives hop distances between NODES; each
	// hop beyond the first adds Fabric.HopLatency to inter-node
	// messages (see simnet.TorusHops / TofuDTopology).
	Topology simnet.Topology
	// TraceCapacity, when positive, records up to this many timeline
	// events per rank (kernel charges via the rank's Tally, MPI
	// operations automatically); Result.Traces carries the logs.
	TraceCapacity int
	// Fault, when non-nil, injects the compiled fault schedule: link
	// faults scale point-to-point costs in post, and FaultCheck fires
	// scheduled rank crashes as world-wide aborts.
	Fault *fault.Injector
	// Cost, when non-nil, receives the simulator's own wall-clock
	// spend: collective rendezvous and virtual-clock advancement are
	// charged to their self-observability stages.
	Cost *obs.CostRecorder
}

func (c Config) withDefaults() Config {
	if c.RanksPerNode <= 0 || c.RanksPerNode > c.Ranks {
		c.RanksPerNode = c.Ranks
	}
	if c.Fabric == nil {
		c.Fabric = simnet.MustLookup("tofud")
	}
	if c.Intra == nil {
		c.Intra = simnet.MustLookup("shm")
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.ReduceGamma <= 0 {
		c.ReduceGamma = 0.25e-9
	}
	return c
}

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	data     []float64
	raw      []byte
	bytes    int64
	avail    float64 // virtual time at which the payload is available
	seq      uint64  // arrival order for AnySource fairness
	flow     uint64  // world-unique message id, links send/recv trace slices
}

// mailbox holds posted-but-unreceived messages for one rank.
type mailbox struct {
	mu     sync.Mutex
	queue  []*message
	notify chan struct{} // replaced on every post
	seq    uint64
}

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{})}
}

func (mb *mailbox) post(m *message) {
	mb.mu.Lock()
	m.seq = mb.seq
	mb.seq++
	mb.queue = append(mb.queue, m)
	close(mb.notify)
	mb.notify = make(chan struct{})
	mb.mu.Unlock()
}

// take removes and returns the oldest message matching (src, tag), or
// nil plus the channel to wait on.
func (mb *mailbox) take(src, tag int) (*message, chan struct{}) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	best := -1
	for i, m := range mb.queue {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			if best == -1 || m.seq < mb.queue[best].seq {
				best = i
			}
		}
	}
	if best == -1 {
		return nil, mb.notify
	}
	m := mb.queue[best]
	mb.queue = append(mb.queue[:best], mb.queue[best+1:]...)
	return m, nil
}

// World is a running MPI job.
type World struct {
	cfg     Config
	boxes   []*mailbox
	clocks  []*vtime.Clock
	phaser  map[string]*phaser // per-communicator collective context
	phMu    sync.Mutex
	tallies []*obs.Tally // per rank
	cost    *obs.CostRecorder
	msgID   atomic.Uint64 // flow ids; 0 is reserved for "no flow"

	inj       *fault.Injector             // nil on clean runs
	blocked   []atomic.Pointer[BlockedOp] // per-rank blocked-op table
	abortCh   chan struct{}               // closed on world-wide abort
	abortOnce sync.Once
	abortErr  error // root cause; written once before abortCh closes
}

// fabricFor returns the transport between two global ranks.
func (w *World) fabricFor(a, b int) *simnet.Fabric {
	if a/w.cfg.RanksPerNode == b/w.cfg.RanksPerNode {
		return w.cfg.Intra
	}
	return w.cfg.Fabric
}

// pairScale returns the placement-dependent cost multiplier for a
// message between two global ranks.
func (w *World) pairScale(a, b int) float64 {
	if w.cfg.PairScale == nil {
		return 1
	}
	s := w.cfg.PairScale(a, b)
	if s < 1 {
		return 1
	}
	return s
}

// hopExtra returns the topology-dependent extra latency between two
// global ranks.
func (w *World) hopExtra(a, b int) float64 {
	if w.cfg.Topology == nil {
		return 0
	}
	na, nb := a/w.cfg.RanksPerNode, b/w.cfg.RanksPerNode
	if na == nb {
		return 0
	}
	hops := w.cfg.Topology(na, nb)
	if hops <= 1 {
		return 0
	}
	return w.cfg.Fabric.HopLatency.Times(float64(hops - 1)).Raw()
}

// collectiveFabric returns the transport for a collective over the
// given global ranks: inter-node if any pair crosses nodes.
func (w *World) collectiveFabric(ranks []int) *simnet.Fabric {
	if len(ranks) == 0 {
		return w.cfg.Intra
	}
	node0 := ranks[0] / w.cfg.RanksPerNode
	for _, r := range ranks[1:] {
		if r/w.cfg.RanksPerNode != node0 {
			return w.cfg.Fabric
		}
	}
	return w.cfg.Intra
}

// Result reports the outcome of a Run.
type Result struct {
	// Times[r] is rank r's final virtual clock in seconds.
	Times []float64
	// Breakdowns[r] is rank r's spend breakdown.
	Breakdowns []vtime.Breakdown
	// Comm profiles the communication (messages, bytes, collectives).
	Comm CommStats
	// Traces holds one event log per rank when tracing was enabled.
	Traces []*trace.Log
	// Tallies holds each rank's instrumentation tally, in rank order,
	// and Totals their fold.
	Tallies []*obs.Tally
	Totals  obs.Totals
}

// MaxTime returns the job's virtual makespan.
func (r *Result) MaxTime() float64 {
	var m float64
	for _, t := range r.Times {
		if t > m {
			m = t
		}
	}
	return m
}

// Series returns the per-rank times as a vtime.Series.
func (r *Result) Series() *vtime.Series {
	s := vtime.NewSeries("rank time")
	for _, t := range r.Times {
		s.Add(t)
	}
	return s
}

// Breakdown returns the breakdown of the slowest rank (the one that
// determines the makespan).
func (r *Result) Breakdown() vtime.Breakdown {
	var best vtime.Breakdown
	var m float64 = -1
	for i, t := range r.Times {
		if t > m {
			m = t
			best = r.Breakdowns[i]
		}
	}
	return best
}

// Run executes body on every rank of a fresh world and waits for all of
// them. The first non-nil error (or recovered panic) is returned; all
// ranks always run to completion or failure so goroutines never leak.
func Run(cfg Config, body func(*Comm) error) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("mpi: need at least one rank, got %d", cfg.Ranks)
	}
	w := &World{
		cfg:     cfg,
		boxes:   make([]*mailbox, cfg.Ranks),
		clocks:  make([]*vtime.Clock, cfg.Ranks),
		phaser:  map[string]*phaser{},
		tallies: make([]*obs.Tally, cfg.Ranks),
		cost:    cfg.Cost,
		inj:     cfg.Fault,
		blocked: make([]atomic.Pointer[BlockedOp], cfg.Ranks),
		abortCh: make(chan struct{}),
	}
	var traces []*trace.Log
	group := make([]int, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		var log *trace.Log
		if cfg.TraceCapacity > 0 {
			log = trace.NewLog(cfg.TraceCapacity)
			traces = append(traces, log)
		}
		w.tallies[r] = obs.NewTally(r, log)
		w.boxes[r] = newMailbox()
		w.clocks[r] = &vtime.Clock{}
		group[r] = r
	}

	errs := make([]error, cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			c := &Comm{world: w, id: "world", rank: rank, group: group}
			errs[rank] = body(c)
		}(r)
	}
	wg.Wait()

	tot := obs.Fold(w.tallies)
	res := &Result{
		Times:      make([]float64, cfg.Ranks),
		Breakdowns: make([]vtime.Breakdown, cfg.Ranks),
		Comm:       commStats(tot.Ops),
		Traces:     traces,
		Tallies:    w.tallies,
		Totals:     tot,
	}
	for r := 0; r < cfg.Ranks; r++ {
		res.Times[r] = w.clocks[r].Now()
		res.Breakdowns[r] = w.clocks[r].Breakdown()
	}
	// Prefer the root cause over the secondary AbortErrors the other
	// ranks observe after a crash or deadlock abort.
	var firstAbort error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ae *AbortError
		if errors.As(err, &ae) {
			if firstAbort == nil {
				firstAbort = err
			}
			continue
		}
		return res, err
	}
	if firstAbort != nil {
		return res, firstAbort
	}
	return res, nil
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	world *World
	id    string // communicator identity, shared by all members
	rank  int    // rank within this communicator
	group []int  // global rank of each communicator rank
}

// Rank returns the caller's rank in this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// Clock returns the caller's virtual clock.
func (c *Comm) Clock() *vtime.Clock { return c.world.clocks[c.global(c.rank)] }

// Advance moves the caller's clock forward; miniapps use it to charge
// modelled compute time.
func (c *Comm) Advance(d float64, cat vtime.Category) { c.Clock().Advance(d, cat) }

// Tally returns the caller's instrumentation tally, which every MPI
// operation, kernel charge and parallel region of the rank reports to.
func (c *Comm) Tally() *obs.Tally { return c.world.tallies[c.global(c.rank)] }

// global translates a communicator rank to a global rank.
func (c *Comm) global(r int) int { return c.group[r] }

func (c *Comm) checkPeer(r int) error {
	if r < 0 || r >= len(c.group) {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", r, len(c.group))
	}
	return nil
}

func float64Bytes(n int) int64 { return int64(n) * 8 }

// post finalizes and delivers a point-to-point message: it charges the
// sender's overhead, stamps the flow id and availability time, and
// tallies the send (traced as the FlowOut end of the message arrow).
func (c *Comm) post(dst int, m *message) {
	gsrc, gdst := c.global(c.rank), c.global(dst)
	f := c.world.fabricFor(gsrc, gdst)
	clk := c.Clock()
	t0 := clk.Now()
	clk.Advance(f.SendOverhead(), vtime.Comm)
	m.flow = c.world.msgID.Add(1)
	// Link faults scale the transfer term only (the overhead and hop
	// latency model the endpoints, not the degraded link).
	transfer := f.PointToPoint(m.bytes) * c.world.pairScale(gsrc, gdst) * c.world.linkScale(gsrc, gdst, clk.Now())
	m.avail = clk.Now() + transfer + c.world.hopExtra(gsrc, gdst)
	c.Tally().MPI("send", gdst, m.bytes, t0, clk.Now(), m.flow, trace.FlowOut)
	c.world.boxes[gdst].post(m)
}

// Send delivers a copy of data to dst with the given tag. It is eager:
// the sender only pays the send overhead and continues. Sending to
// ProcNull is a free no-op.
func (c *Comm) Send(dst, tag int, data []float64) error {
	if dst == ProcNull {
		return nil
	}
	if err := c.checkPeer(dst); err != nil {
		return err
	}
	if err := c.FaultCheck(); err != nil {
		return err
	}
	c.post(dst, &message{
		src:   c.rank,
		tag:   tag,
		data:  append([]float64(nil), data...),
		bytes: float64Bytes(len(data)),
	})
	return nil
}

// SendBytes is Send for raw byte payloads.
func (c *Comm) SendBytes(dst, tag int, data []byte) error {
	if dst == ProcNull {
		return nil
	}
	if err := c.checkPeer(dst); err != nil {
		return err
	}
	if err := c.FaultCheck(); err != nil {
		return err
	}
	c.post(dst, &message{
		src:   c.rank,
		tag:   tag,
		raw:   append([]byte(nil), data...),
		bytes: int64(len(data)),
	})
	return nil
}

// recvMessage blocks until a matching message arrives, advancing the
// caller's clock to the payload availability time. Receiving from
// ProcNull returns an empty message immediately.
func (c *Comm) recvMessage(src, tag int) (*message, error) {
	if src == ProcNull {
		return &message{src: ProcNull, tag: tag}, nil
	}
	if src != AnySource {
		if err := c.checkPeer(src); err != nil {
			return nil, err
		}
	}
	if err := c.FaultCheck(); err != nil {
		return nil, err
	}
	g := c.global(c.rank)
	box := c.world.boxes[g]
	deadline := time.NewTimer(c.world.cfg.Timeout)
	defer deadline.Stop()
	t0 := c.Clock().Now()
	peer := AnySource
	if src != AnySource {
		peer = c.global(src)
	}
	for {
		m, wait := box.take(src, tag)
		if m != nil {
			c.world.clearBlocked(g)
			vs := c.world.cost.Begin()
			c.Clock().AdvanceTo(m.avail, vtime.Comm)
			c.world.cost.End(obs.StageVtimeAdvance, vs)
			c.Tally().MPI("recv", c.global(m.src), m.bytes, t0, c.Clock().Now(), m.flow, trace.FlowIn)
			return m, nil
		}
		c.world.setBlocked(g, BlockedOp{Rank: g, Op: "recv", Peer: peer, Tag: tag, Clock: t0})
		select {
		case <-wait:
		case <-c.world.abortCh:
			// Leave the blocked entry in place: the rank dies here, and
			// the deadlock dump should still show where it hung.
			return nil, c.world.abortedError()
		case <-deadline.C:
			return nil, c.world.deadlock(g)
		}
	}
}

// Recv blocks until a float64 message matching (src, tag) arrives.
// Use AnySource and AnyTag as wildcards. Receiving a byte message with
// Recv is a type error.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	m, err := c.recvMessage(src, tag)
	if err != nil {
		return nil, err
	}
	if m.raw != nil {
		return nil, fmt.Errorf("mpi: rank %d: Recv matched a byte message (src=%d tag=%d); use RecvBytes", c.rank, m.src, m.tag)
	}
	return m.data, nil
}

// RecvBytes blocks until a byte message matching (src, tag) arrives.
func (c *Comm) RecvBytes(src, tag int) ([]byte, error) {
	m, err := c.recvMessage(src, tag)
	if err != nil {
		return nil, err
	}
	if m.raw == nil && m.data != nil {
		return nil, fmt.Errorf("mpi: rank %d: RecvBytes matched a float64 message (src=%d tag=%d); use Recv", c.rank, m.src, m.tag)
	}
	return m.raw, nil
}

// Sendrecv posts a send to dst and then receives from src, the usual
// halo-exchange primitive. The eager send makes the symmetric pattern
// deadlock-free.
func (c *Comm) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) ([]float64, error) {
	if err := c.Send(dst, sendTag, data); err != nil {
		return nil, err
	}
	return c.Recv(src, recvTag)
}
