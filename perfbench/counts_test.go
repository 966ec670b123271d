package main

import "testing"

// TestCountsRepeatExactly pins the contract counters the per-layer
// ledger reports as exact: messages, bytes and GEMM flops of one warm
// call must repeat to the last unit across two runs of one seed and
// across two seeds, on every workload. A change that moves them has
// changed a schedule, not its speed.
func TestCountsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && w.name != "purify-64" {
				t.Skip("large workload")
			}
			measure := func(seed uint64) counts {
				t.Helper()
				build, err := w.gen(w, seed)
				if err != nil {
					t.Fatal(err)
				}
				c, err := probeCounts(build)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			first := measure(1)
			if first.msgs <= 0 || first.bytes <= 0 || first.flops <= 0 {
				t.Fatalf("counts not positive: %+v", first)
			}
			if again := measure(1); again != first {
				t.Errorf("seed 1 twice: %+v then %+v", first, again)
			}
			if other := measure(2); other != first {
				t.Errorf("seed 1 vs seed 2: %+v vs %+v", first, other)
			}
		})
	}
}
