// Package obs is the unified observability layer of the simulator: a
// concurrency-safe metrics registry with Prometheus-style exposition;
// a per-rank Tally that the compute model's charges (internal/core),
// the MPI runtime (internal/mpi) and the OpenMP runtime (internal/omp)
// report every operation to; a run Recorder that folds a run's tallies
// into a per-run Profile and metrics; and a run Manifest — one
// machine-readable JSON document per run that captures the
// configuration, verification status and the full time attribution.
//
// The tally follows the ECM-style methodology of attributing kernel
// time to the resource that bound it: arithmetic throughput, dependency
// stalls, or data traffic served from L1, L2 or main memory. It takes
// no lock and does not allocate once a key has been seen, and the fold
// sums ranks in rank order, so a recorded run costs the runtimes no
// more than an unrecorded one and folds to the same bytes every time.
package obs

import (
	"fmt"

	"fibersim/internal/core"
	"fibersim/internal/vtime"
)

// Resource names one bucket of the ECM-style time attribution.
type Resource int

const (
	// ResCompute is time bound by arithmetic throughput (issue slots).
	ResCompute Resource = iota
	// ResStall is compute time lost to unhidden dependency chains.
	ResStall
	// ResL1 is traffic time served from the level-1 cache.
	ResL1
	// ResL2 is traffic time served from the shared L2/LLC slice.
	ResL2
	// ResMem is traffic time served from main memory (HBM/DDR).
	ResMem
	numResources
)

// String returns the resource label used in manifests and reports.
func (r Resource) String() string {
	switch r {
	case ResCompute:
		return "compute"
	case ResStall:
		return "stall"
	case ResL1:
		return "l1"
	case ResL2:
		return "l2"
	case ResMem:
		return "mem"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// Resources lists the attribution buckets in report order.
func Resources() []Resource {
	return []Resource{ResCompute, ResStall, ResL1, ResL2, ResMem}
}

// Attribution splits one kernel's modelled time across the bounding
// resources. The fields sum to the kernel's total charged time.
type Attribution struct {
	// Compute is the base arithmetic time (s).
	Compute float64 `json:"compute"`
	// Stall is the dependency-stall share of the compute time (s).
	Stall float64 `json:"stall"`
	// L1, L2 and Mem are the traffic time at the serving level (s).
	L1  float64 `json:"l1"`
	L2  float64 `json:"l2"`
	Mem float64 `json:"mem"`
}

// Get returns the time attributed to one resource.
func (a Attribution) Get(r Resource) float64 {
	switch r {
	case ResCompute:
		return a.Compute
	case ResStall:
		return a.Stall
	case ResL1:
		return a.L1
	case ResL2:
		return a.L2
	case ResMem:
		return a.Mem
	default:
		return 0
	}
}

// Add returns the element-wise sum of two attributions.
func (a Attribution) Add(o Attribution) Attribution {
	a.Compute += o.Compute
	a.Stall += o.Stall
	a.L1 += o.L1
	a.L2 += o.L2
	a.Mem += o.Mem
	return a
}

// Total returns the summed attribution, the kernel's charged time.
func (a Attribution) Total() float64 {
	return a.Compute + a.Stall + a.L1 + a.L2 + a.Mem
}

// Dominant returns the resource holding the largest share. Ties go to
// the earlier resource in report order.
func (a Attribution) Dominant() Resource {
	best, bestV := ResCompute, a.Compute
	for _, r := range Resources()[1:] {
		if v := a.Get(r); v > bestV {
			best, bestV = r, v
		}
	}
	return best
}

// Category folds the attribution back onto the analyzer's two-way
// bottleneck classification: compute (arithmetic + stalls) versus
// memory (traffic at any level). It matches core's Estimate.Bottleneck
// for attributions built by Attribute.
func (a Attribution) Category() vtime.Category {
	if a.L1+a.L2+a.Mem > a.Compute+a.Stall {
		return vtime.Memory
	}
	return vtime.Compute
}

// Attribute converts one kernel estimate into the ECM-style time
// attribution. The total charged time est.Total is split between the
// compute and memory resources in the same proportion core.Model.Charge
// uses to advance the clock, so attributions sum (to rounding) to the
// virtual time the run actually spent. Within the compute share, the
// dependency-stall part is the fraction the stall multiplier added;
// the memory share lands on the cache level that served the traffic.
func Attribute(est core.Estimate) Attribution {
	denom := est.Compute + est.Memory
	if denom <= 0 || est.Total <= 0 {
		return Attribution{}
	}
	computeShare := est.Total * est.Compute / denom
	memShare := est.Total * est.Memory / denom

	var a Attribution
	if est.StallFactor > 1 {
		a.Compute = computeShare / est.StallFactor
		a.Stall = computeShare - a.Compute
	} else {
		a.Compute = computeShare
	}
	switch est.CacheLevel {
	case 1:
		a.L1 = memShare
	case 2:
		a.L2 = memShare
	default:
		a.Mem = memShare
	}
	return a
}
