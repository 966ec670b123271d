package ca3dmm

import (
	"runtime"
	"testing"
	"time"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSoakEngineStaysBounded runs 10^4 warm calls of a latency-bound
// P=8 64^3 engine and pins what a long-lived process needs: the message
// path holds no inbox entries or queued envelopes between calls, the
// live heap stops growing after warm-up, and Close leaves no goroutine
// behind.
func TestSoakEngineStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n, p, calls, warm = 64, 8, 10000, 500
	a := Random(n, n, 1)
	b := Random(n, n, 2)

	// A throwaway engine starts the process-wide workers (the GEMM pool)
	// so that the goroutine baseline includes them.
	if e, err := NewEngine(n, n, n, p, Config{}); err != nil {
		t.Fatal(err)
	} else {
		e.MultiplyGlobal(a, b)
		e.Close()
	}
	baseGoroutines := runtime.NumGoroutine()

	eng, err := NewEngine(n, n, n, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Every operand resident in the C layout, as in a purification loop:
	// warm calls redistribute through cached routes and posted receives.
	_, _, cL := eng.NativeLayouts()
	aLocs, bLocs := ScatterBlocks(a, cL), ScatterBlocks(b, cL)
	cDsts := make([]*Matrix, p)
	for r := range cDsts {
		rows, cols := cL.LocalShape(r)
		cDsts[r] = NewMatrix(rows, cols)
	}
	var heap0 int64
	for call := 1; call <= calls; call++ {
		if _, _, err := eng.Multiply(aLocs, cL, bLocs, cL, cDsts, cL); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if st := eng.Stats(); st.InboxEntries != 0 || st.QueuedEnvelopes != 0 {
			t.Fatalf("after call %d: %d inbox entries, %d queued envelopes, want 0 and 0",
				call, st.InboxEntries, st.QueuedEnvelopes)
		}
		if call == warm {
			heap0 = liveHeap()
		}
	}
	perCall := float64(liveHeap()-heap0) / float64(calls-warm)
	if perCall >= 1024 {
		t.Fatalf("live heap grew %.0f B per warm call after warm-up, want under 1 KB", perCall)
	}
	if d := MaxAbsDiff(AssembleBlocks(cDsts, cL), GemmRef(a, b, false, false)); d > 1e-10 {
		t.Fatalf("last call wrong: max diff %g", d)
	}
	if _, err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseGoroutines {
		t.Fatalf("%d goroutines after Close, baseline %d", g, baseGoroutines)
	}
}
