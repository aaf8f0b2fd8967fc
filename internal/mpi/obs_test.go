package mpi

import (
	"testing"

	"fibersim/internal/obs"
	"fibersim/internal/trace"
)

func TestCollectiveBytes(t *testing.T) {
	res, err := Run(fastCfg(4), func(c *Comm) error {
		if _, err := c.Allreduce(OpSum, []float64{1, 2}); err != nil {
			return err
		}
		var buf []float64
		if c.Rank() == 0 {
			buf = []float64{1, 2, 3}
		}
		if _, err := c.Bcast(0, buf); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each of 4 ranks contributes its 2-element payload to allreduce.
	if got := res.Comm.CollectiveBytes["allreduce"]; got != 4*16 {
		t.Errorf("allreduce bytes = %d, want 64", got)
	}
	// Only the root carries a bcast payload, counted once.
	if got := res.Comm.CollectiveBytes["bcast"]; got != 24 {
		t.Errorf("bcast bytes = %d, want 24", got)
	}
	if got := res.Comm.CollectiveBytes["barrier"]; got != 0 {
		t.Errorf("barrier bytes = %d, want 0", got)
	}
}

func TestMergeCommStats(t *testing.T) {
	a := CommStats{
		Sends: 2, SendBytes: 100,
		Collectives:     map[string]int64{"barrier": 4},
		CollectiveBytes: map[string]int64{"allreduce": 32},
	}
	b := CommStats{
		Sends: 3, SendBytes: 50,
		Collectives:     map[string]int64{"barrier": 2, "allreduce": 4},
		CollectiveBytes: map[string]int64{"allreduce": 16},
	}
	got := MergeCommStats(a, b)
	if got.Sends != 5 || got.SendBytes != 150 {
		t.Errorf("sends/bytes = %d/%d, want 5/150", got.Sends, got.SendBytes)
	}
	if got.Collectives["barrier"] != 6 || got.Collectives["allreduce"] != 4 {
		t.Errorf("collectives = %v", got.Collectives)
	}
	if got.CollectiveBytes["allreduce"] != 48 {
		t.Errorf("collective bytes = %v", got.CollectiveBytes)
	}
	if MergeCommStats().Collectives == nil {
		t.Error("empty merge must still allocate maps")
	}
}

func TestRecorderIntegration(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := Run(fastCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []float64{1, 2}); err != nil {
				return err
			}
		}
		if c.Rank() == 1 {
			if _, err := c.Recv(0, 0); err != nil {
				return err
			}
		}
		_, err := c.Allreduce(OpSum, []float64{1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Add(res.Tallies)
	p := rec.Profile()
	send := p.Comm.Ops["send"]
	if send.Count != 1 || send.Bytes != 16 {
		t.Errorf("send op = %+v, want count 1 bytes 16", send)
	}
	recv := p.Comm.Ops["recv"]
	if recv.Count != 1 || recv.Bytes != 16 || recv.WaitSeconds <= 0 {
		t.Errorf("recv op = %+v, want count 1 bytes 16 wait > 0", recv)
	}
	ar := p.Comm.Ops["allreduce"]
	if ar.Count != 2 || ar.Bytes != 16 {
		t.Errorf("allreduce op = %+v, want count 2 bytes 16", ar)
	}
	// The message appears once in the peer matrix (send side only).
	if len(p.Comm.Peers) != 1 {
		t.Fatalf("peers = %+v, want exactly one flow", p.Comm.Peers)
	}
	if f := p.Comm.Peers[0]; f.Src != 0 || f.Dst != 1 || f.Count != 1 || f.Bytes != 16 {
		t.Errorf("peer flow = %+v", f)
	}
	if p.Comm.WaitSeconds <= 0 {
		t.Error("total wait must be positive")
	}
}

func TestTraceFlowEvents(t *testing.T) {
	cfg := fastCfg(2)
	cfg.TraceCapacity = 64
	res, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []float64{1})
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var out, in trace.Event
	for _, l := range res.Traces {
		for _, ev := range l.Events() {
			switch ev.FlowKind {
			case trace.FlowOut:
				out = ev
			case trace.FlowIn:
				in = ev
			}
		}
	}
	if out.Flow == 0 || in.Flow == 0 {
		t.Fatalf("missing flow endpoints: out=%+v in=%+v", out, in)
	}
	if out.Flow != in.Flow {
		t.Errorf("flow ids differ: send %d, recv %d", out.Flow, in.Flow)
	}
	if out.Name != "send" || in.Name != "recv" {
		t.Errorf("flow slice names = %q/%q", out.Name, in.Name)
	}
	if out.Rank != 0 || in.Rank != 1 {
		t.Errorf("flow ranks = %d/%d", out.Rank, in.Rank)
	}
}
