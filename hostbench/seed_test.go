package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"fibersim/internal/jobs"
)

// shapeCounts is the multiset of (app, decomposition) shapes of the
// specs in batch that seen does not hold yet, which it then adds.
func shapeCounts(batch []jobs.Spec, seen map[string]bool) map[string]int {
	out := map[string]int{}
	for _, s := range batch {
		if !seen[specKey(s)] {
			seen[specKey(s)] = true
			out[fmt.Sprintf("%s|%dx%d", s.App, s.Procs, s.Threads)]++
		}
	}
	return out
}

func TestPlanMixIsSeeded(t *testing.T) {
	a, b, c := planMix(7), planMix(7), planMix(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two different plans")
	}
	if reflect.DeepEqual(a.batches, c.batches) || reflect.DeepEqual(a.prefill, c.prefill) {
		t.Fatal("two seeds gave the same sequence")
	}
	if len(a.prefill) != len(c.prefill) || len(a.batches) != len(c.batches) {
		t.Fatalf("plan shapes differ: %d/%d prefill, %d/%d batches",
			len(a.prefill), len(c.prefill), len(a.batches), len(c.batches))
	}
	seenA, seenC := map[string]bool{}, map[string]bool{}
	if !reflect.DeepEqual(shapeCounts(a.prefill, seenA), shapeCounts(c.prefill, seenC)) {
		t.Error("prefill shapes differ between seeds")
	}
	// The fresh specs of each batch, the ones that cost a run, have the
	// same shapes whatever the seed.
	for i := range a.batches {
		if len(a.batches[i]) != len(c.batches[i]) {
			t.Fatalf("batch %d: %d vs %d jobs", i, len(a.batches[i]), len(c.batches[i]))
		}
		if !reflect.DeepEqual(shapeCounts(a.batches[i], seenA), shapeCounts(c.batches[i], seenC)) {
			t.Errorf("batch %d: fresh shapes differ between seeds", i)
		}
	}
}

func TestPlanMixShape(t *testing.T) {
	p := planMix(11)
	space := map[string]bool{}
	for _, s := range specSpace() {
		space[specKey(s)] = true
	}
	prefill := map[string]bool{}
	for _, s := range p.prefill {
		prefill[specKey(s)] = true
	}
	if want := prefillPerShape * len(suiteApps) * len(serviceDecomps); len(prefill) != want {
		t.Fatalf("%d distinct prefill specs, want %d", len(prefill), want)
	}
	seen := map[string]bool{}
	for bi, batch := range p.batches {
		if len(batch) < 1000 {
			t.Errorf("batch %d has %d jobs, want at least 1000", bi, len(batch))
		}
		for i, s := range batch {
			k := specKey(s)
			if !space[k] {
				t.Fatalf("batch %d job %d: %s is outside the spec space", bi, i, k)
			}
			if prefill[k] {
				t.Fatalf("batch %d job %d: %s is also in the prefilled journal", bi, i, k)
			}
			if seen[k] != isRepeat(i) {
				t.Fatalf("batch %d job %d: repeat=%v, want %v", bi, i, seen[k], isRepeat(i))
			}
			seen[k] = true
		}
	}
}

func TestGridOrderIsSeeded(t *testing.T) {
	order := func(seed int64) []string {
		cells, _, err := gridSetup(wlThreads, seed)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, c := range cells {
			keys = append(keys, cellKey(c.cfg))
		}
		return keys
	}
	a, b, c := order(3), order(3), order(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two cell orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same cell order")
	}
	sort.Strings(a)
	sort.Strings(c)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("two seeds ran different cells")
	}
}
