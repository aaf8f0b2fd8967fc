package mpi

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fibersim/internal/obs"
	"fibersim/internal/trace"
	"fibersim/internal/vtime"
)

// phaser is the rendezvous structure behind collectives: all ranks of a
// communicator deposit their contribution; the last arriver verifies
// that everyone called the same operation, computes the result and the
// synchronized virtual time, and releases everyone.
type phaser struct {
	mu      sync.Mutex
	size    int
	entries []phaserEntry
	cur     *generation
}

// generation carries the result of one collective round; waiters keep a
// pointer so later rounds cannot overwrite what they read.
type generation struct {
	done   chan struct{}
	result any
	err    error
}

type phaserEntry struct {
	rank  int
	op    string // operation signature, for mismatch detection
	value any
	clock *vtime.Clock
}

func (w *World) phaserFor(commID string, size int) *phaser {
	w.phMu.Lock()
	defer w.phMu.Unlock()
	ph, ok := w.phaser[commID]
	if !ok {
		ph = &phaser{size: size, cur: &generation{done: make(chan struct{})}}
		w.phaser[commID] = ph
	}
	return ph
}

// rendezvous runs one collective round. op is the operation signature
// (name plus shape); bytes is this rank's payload contribution (for
// accounting only); value is this rank's contribution; combine runs on
// the last arriver with all entries (sorted by rank) and returns the
// shared result; cost returns the collective's virtual cost given the
// synchronized start time. The returned value is combine's result.
func (c *Comm) rendezvous(op string, bytes int64, value any,
	combine func(entries []phaserEntry) (any, error),
	cost func() float64) (any, error) {

	if err := c.FaultCheck(); err != nil {
		return nil, err
	}
	traceStart := c.Clock().Now()
	// Self-observability: the whole rendezvous (entry, combine, wait)
	// is collective cost, except the clock-sync loop measured below as
	// vtime-advance — the stages stay disjoint.
	costStart := c.world.cost.Begin()
	var syncCost time.Duration
	defer func() {
		c.world.cost.EndExcluding(obs.StageCollective, costStart, syncCost)
		c.Tally().MPI(op, -1, bytes, traceStart, c.Clock().Now(), 0, trace.FlowNone)
	}()
	ph := c.world.phaserFor(c.id, len(c.group))
	ph.mu.Lock()
	gen := ph.cur
	ph.entries = append(ph.entries, phaserEntry{
		rank: c.rank, op: op, value: value, clock: c.Clock(),
	})
	if len(ph.entries) == ph.size {
		// Last arriver: validate, combine, synchronize, release.
		sort.Slice(ph.entries, func(i, j int) bool { return ph.entries[i].rank < ph.entries[j].rank })
		for _, e := range ph.entries {
			if e.op != op {
				gen.err = fmt.Errorf("mpi: mismatched collectives on %q: rank %d called %s, rank %d called %s",
					c.id, e.rank, e.op, c.rank, op)
				break
			}
		}
		if gen.err == nil {
			seen := map[int]bool{}
			for _, e := range ph.entries {
				if seen[e.rank] {
					gen.err = fmt.Errorf("mpi: rank %d entered collective %s twice", e.rank, op)
					break
				}
				seen[e.rank] = true
			}
		}
		if gen.err == nil {
			gen.result, gen.err = combine(ph.entries)
		}
		clocks := make([]*vtime.Clock, len(ph.entries))
		for i, e := range ph.entries {
			clocks[i] = e.clock
		}
		start := vtime.Max(vtime.Comm, clocks...)
		syncT := start + cost()
		syncStart := c.world.cost.Begin()
		for _, cl := range clocks {
			cl.AdvanceTo(syncT, vtime.Comm)
		}
		syncCost = c.world.cost.End(obs.StageVtimeAdvance, syncStart)
		// Reset for the next generation before releasing waiters.
		ph.entries = nil
		ph.cur = &generation{done: make(chan struct{})}
		ph.mu.Unlock()
		close(gen.done)
		return gen.result, gen.err
	}
	ph.mu.Unlock()

	g := c.global(c.rank)
	c.world.setBlocked(g, BlockedOp{Rank: g, Op: op, Peer: -1, Tag: -1, Clock: traceStart})
	deadline := time.NewTimer(c.world.cfg.Timeout)
	defer deadline.Stop()
	select {
	case <-gen.done:
		c.world.clearBlocked(g)
	case <-c.world.abortCh:
		// Keep the blocked entry so deadlock dumps show where this rank hung.
		return nil, c.world.abortedError()
	case <-deadline.C:
		return nil, c.world.deadlock(g)
	}
	return gen.result, gen.err
}

// Barrier blocks until all ranks of the communicator arrive and
// synchronizes their virtual clocks.
func (c *Comm) Barrier() error {
	f := c.world.collectiveFabric(c.group)
	_, err := c.rendezvous("barrier", 0, nil,
		func([]phaserEntry) (any, error) { return nil, nil },
		func() float64 { return f.Barrier(len(c.group)) })
	return err
}

// Bcast broadcasts root's buffer to all ranks; non-root ranks pass nil
// and receive the copy. All ranks receive the result slice.
func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	var n int64
	res, err := c.rendezvous(fmt.Sprintf("bcast/root=%d", root), float64Bytes(len(data)), data,
		func(entries []phaserEntry) (any, error) {
			buf, _ := entries[root].value.([]float64)
			if buf == nil {
				return nil, fmt.Errorf("mpi: bcast root %d supplied no data", root)
			}
			n = float64Bytes(len(buf))
			return append([]float64(nil), buf...), nil
		},
		func() float64 { return f.Bcast(len(c.group), n) })
	if err != nil {
		return nil, err
	}
	// Every rank gets its own copy so receivers can mutate freely.
	return append([]float64(nil), res.([]float64)...), nil
}

// reduceEntries folds the per-rank vectors element-wise with op.
func reduceEntries(op Op, entries []phaserEntry) ([]float64, error) {
	var acc []float64
	for _, e := range entries {
		v, ok := e.value.([]float64)
		if !ok {
			return nil, fmt.Errorf("mpi: reduce rank %d supplied no data", e.rank)
		}
		if acc == nil {
			acc = append([]float64(nil), v...)
			continue
		}
		if len(v) != len(acc) {
			return nil, fmt.Errorf("mpi: reduce length mismatch: rank %d has %d elements, expected %d",
				e.rank, len(v), len(acc))
		}
		for i, x := range v {
			acc[i] = op.apply(acc[i], x)
		}
	}
	return acc, nil
}

// Reduce combines data element-wise across ranks with op; the result is
// returned on root and nil elsewhere.
func (c *Comm) Reduce(root int, op Op, data []float64) ([]float64, error) {
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("reduce/%s/root=%d/n=%d", op, root, len(data)), n, data,
		func(entries []phaserEntry) (any, error) { return reduceEntries(op, entries) },
		func() float64 { return f.Reduce(len(c.group), n, c.world.cfg.ReduceGamma) })
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return res.([]float64), nil
}

// Allreduce combines data element-wise across ranks; every rank gets
// the result.
func (c *Comm) Allreduce(op Op, data []float64) ([]float64, error) {
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("allreduce/%s/n=%d", op, len(data)), n, data,
		func(entries []phaserEntry) (any, error) { return reduceEntries(op, entries) },
		func() float64 { return f.Allreduce(len(c.group), n, c.world.cfg.ReduceGamma) })
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), res.([]float64)...), nil
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(op Op, v float64) (float64, error) {
	res, err := c.Allreduce(op, []float64{v})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// Gather collects every rank's buffer on root, indexed by rank; nil is
// returned on non-root ranks. Buffers may have different lengths
// (gatherv semantics).
func (c *Comm) Gather(root int, data []float64) ([][]float64, error) {
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("gather/root=%d", root), n, data,
		func(entries []phaserEntry) (any, error) {
			out := make([][]float64, len(entries))
			for i, e := range entries {
				v, _ := e.value.([]float64)
				out[i] = append([]float64(nil), v...)
			}
			return out, nil
		},
		func() float64 { return f.Gather(len(c.group), n) })
	if err != nil {
		return nil, err
	}
	if c.rank != root {
		return nil, nil
	}
	return res.([][]float64), nil
}

// Allgather collects every rank's buffer on every rank, indexed by rank.
func (c *Comm) Allgather(data []float64) ([][]float64, error) {
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous("allgather", n, data,
		func(entries []phaserEntry) (any, error) {
			out := make([][]float64, len(entries))
			for i, e := range entries {
				v, _ := e.value.([]float64)
				out[i] = append([]float64(nil), v...)
			}
			return out, nil
		},
		func() float64 { return f.Allgather(len(c.group), n) })
	if err != nil {
		return nil, err
	}
	all := res.([][]float64)
	out := make([][]float64, len(all))
	for i, v := range all {
		out[i] = append([]float64(nil), v...)
	}
	return out, nil
}

// Alltoall sends chunks[j] to rank j and returns the chunks received,
// indexed by source rank. Every rank must pass exactly Size() chunks.
func (c *Comm) Alltoall(chunks [][]float64) ([][]float64, error) {
	p := len(c.group)
	if len(chunks) != p {
		return nil, fmt.Errorf("mpi: alltoall needs %d chunks, got %d", p, len(chunks))
	}
	var maxChunk, total int64
	for _, ch := range chunks {
		b := float64Bytes(len(ch))
		total += b
		if b > maxChunk {
			maxChunk = b
		}
	}
	f := c.world.collectiveFabric(c.group)
	res, err := c.rendezvous("alltoall", total, chunks,
		func(entries []phaserEntry) (any, error) {
			// matrix[src][dst]
			matrix := make([][][]float64, p)
			for i, e := range entries {
				v, ok := e.value.([][]float64)
				if !ok || len(v) != p {
					return nil, fmt.Errorf("mpi: alltoall rank %d supplied %d chunks, want %d", e.rank, len(v), p)
				}
				matrix[i] = v
			}
			return matrix, nil
		},
		func() float64 { return f.Alltoall(p, maxChunk) })
	if err != nil {
		return nil, err
	}
	matrix := res.([][][]float64)
	out := make([][]float64, p)
	for src := 0; src < p; src++ {
		out[src] = append([]float64(nil), matrix[src][c.rank]...)
	}
	return out, nil
}

// Scatter distributes root's chunks: rank i receives chunks[i]. Only
// the root's chunks argument is used; other ranks pass nil.
func (c *Comm) Scatter(root int, chunks [][]float64) ([]float64, error) {
	if err := c.checkPeer(root); err != nil {
		return nil, err
	}
	f := c.world.collectiveFabric(c.group)
	var sendTotal int64
	for _, ch := range chunks {
		sendTotal += float64Bytes(len(ch))
	}
	var maxChunk int64
	res, err := c.rendezvous(fmt.Sprintf("scatter/root=%d", root), sendTotal, chunks,
		func(entries []phaserEntry) (any, error) {
			v, _ := entries[root].value.([][]float64)
			if len(v) != len(c.group) {
				return nil, fmt.Errorf("mpi: scatter root %d supplied %d chunks, want %d",
					root, len(v), len(c.group))
			}
			out := make([][]float64, len(v))
			for i, ch := range v {
				out[i] = append([]float64(nil), ch...)
				if b := float64Bytes(len(ch)); b > maxChunk {
					maxChunk = b
				}
			}
			return out, nil
		},
		func() float64 { return f.Bcast(len(c.group), maxChunk) })
	if err != nil {
		return nil, err
	}
	return res.([][]float64)[c.rank], nil
}

// ReduceScatter combines data element-wise across ranks and scatters
// the result: with n = len(data) divisible by Size(), rank i receives
// elements [i*n/p, (i+1)*n/p) of the reduction.
func (c *Comm) ReduceScatter(op Op, data []float64) ([]float64, error) {
	p := len(c.group)
	if len(data)%p != 0 {
		return nil, fmt.Errorf("mpi: reduce-scatter length %d not divisible by %d ranks", len(data), p)
	}
	f := c.world.collectiveFabric(c.group)
	n := float64Bytes(len(data))
	res, err := c.rendezvous(fmt.Sprintf("reducescatter/%s/n=%d", op, len(data)), n, data,
		func(entries []phaserEntry) (any, error) { return reduceEntries(op, entries) },
		func() float64 { return f.Reduce(p, n, c.world.cfg.ReduceGamma) })
	if err != nil {
		return nil, err
	}
	full := res.([]float64)
	chunk := len(full) / p
	return append([]float64(nil), full[c.rank*chunk:(c.rank+1)*chunk]...), nil
}

// Split partitions the communicator by color; ranks passing the same
// color form a new communicator ordered by key (ties broken by old
// rank). Every rank of c must call Split.
func (c *Comm) Split(color, key int) (*Comm, error) {
	type ck struct{ color, key, rank int }
	res, err := c.rendezvous("split", 0, ck{color, key, c.rank},
		func(entries []phaserEntry) (any, error) {
			all := make([]ck, len(entries))
			for i, e := range entries {
				all[i] = e.value.(ck)
			}
			return all, nil
		},
		func() float64 { return c.world.collectiveFabric(c.group).Barrier(len(c.group)) })
	if err != nil {
		return nil, err
	}
	all := res.([]ck)
	var mine []ck
	for _, e := range all {
		if e.color == color {
			mine = append(mine, e)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, e := range mine {
		group[i] = c.global(e.rank)
		if e.rank == c.rank {
			newRank = i
		}
	}
	// Identify the new communicator by its exact membership so distinct
	// splits never share a phaser.
	id := fmt.Sprintf("%s/split(c=%d)%v", c.id, color, group)
	return &Comm{world: c.world, id: id, rank: newRank, group: group}, nil
}
