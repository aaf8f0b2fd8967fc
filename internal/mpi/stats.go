package mpi

import (
	"fmt"
	"sort"
	"strings"

	"fibersim/internal/obs"
)

// CommStats counts the communication operations of a run, in the
// spirit of mpiP-style profiling: how many point-to-point messages and
// bytes moved, and how many collectives of each kind ran (counted once
// per rank entering) with the payload bytes they carried.
type CommStats struct {
	// Sends is the number of point-to-point messages posted.
	Sends int64
	// SendBytes is the payload total of those messages.
	SendBytes int64
	// Collectives counts entries per operation name ("barrier",
	// "allreduce", ...).
	Collectives map[string]int64
	// CollectiveBytes sums the payload bytes per operation name, as
	// contributed by each entering rank (a barrier carries none; a
	// bcast counts the root's buffer once).
	CollectiveBytes map[string]int64
}

// String renders the stats compactly.
func (s CommStats) String() string {
	names := make([]string, 0, len(s.Collectives))
	for n := range s.Collectives {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := []string{fmt.Sprintf("sends=%d bytes=%d", s.Sends, s.SendBytes)}
	for _, n := range names {
		p := fmt.Sprintf("%s=%d", n, s.Collectives[n])
		if b := s.CollectiveBytes[n]; b > 0 {
			p += fmt.Sprintf("(%dB)", b)
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

// MergeCommStats aggregates the stats of several worlds (e.g. the
// per-replica worlds of a multi-node experiment) into one total.
func MergeCommStats(stats ...CommStats) CommStats {
	out := CommStats{
		Collectives:     map[string]int64{},
		CollectiveBytes: map[string]int64{},
	}
	for _, s := range stats {
		out.Sends += s.Sends
		out.SendBytes += s.SendBytes
		for n, v := range s.Collectives {
			out.Collectives[n] += v
		}
		for n, v := range s.CollectiveBytes {
			out.CollectiveBytes[n] += v
		}
	}
	return out
}

// commStats converts a run's folded operation totals into CommStats:
// every operation other than send and recv is a collective.
func commStats(ops map[string]obs.CommOp) CommStats {
	out := CommStats{
		Collectives:     map[string]int64{},
		CollectiveBytes: map[string]int64{},
	}
	for name, o := range ops {
		switch name {
		case "send":
			out.Sends, out.SendBytes = o.Count, o.Bytes
		case "recv":
		default:
			out.Collectives[name] = o.Count
			if o.Bytes > 0 {
				out.CollectiveBytes[name] = o.Bytes
			}
		}
	}
	return out
}
