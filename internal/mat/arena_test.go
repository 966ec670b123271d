package mat

import "testing"

func TestArenaRecycles(t *testing.T) {
	a := NewArena()
	s := a.GetSlice(16)
	s[3] = 7
	a.PutSlice(s)
	s2 := a.GetSlice(16)
	if &s2[0] != &s[0] {
		t.Fatal("same-size Get did not recycle the slab")
	}
	if s2[3] != 0 {
		t.Fatal("recycled slab not zeroed")
	}
	if hits, misses := a.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d, want 1/1", hits, misses)
	}
	if s3 := a.GetSlice(16); &s3[0] == &s2[0] {
		t.Fatal("in-use slab handed out twice")
	}
}

func TestArenaSizeClasses(t *testing.T) {
	a := NewArena()
	a.PutSlice(a.GetSlice(8))
	if s := a.GetSlice(9); len(s) != 9 {
		t.Fatalf("got len %d", len(s))
	}
	if hits, _ := a.Stats(); hits != 0 {
		t.Fatal("different size must not hit")
	}
}

func TestArenaDense(t *testing.T) {
	a := NewArena()
	d := a.Get(3, 4)
	if d.Rows != 3 || d.Cols != 4 || d.Stride != 4 || len(d.Data) != 12 {
		t.Fatalf("bad dense %+v", d)
	}
	d.Data[5] = 1
	a.Put(d)
	d2 := a.Get(4, 3) // same slab size, different shape
	if &d2.Data[0] != &d.Data[0] {
		t.Fatal("12-element slab not recycled across shapes")
	}
	if d2.Data[5] != 0 {
		t.Fatal("recycled dense not zeroed")
	}
	// Views must not donate their parent's slab.
	parent := a.Get(4, 4)
	a.Put(parent.View(0, 0, 2, 2))
	if _, misses := a.Stats(); a.Get(2, 2) == nil || misses == 0 {
		t.Fatal("unexpected")
	}
}

func TestNilArenaDegrades(t *testing.T) {
	var a *Arena
	if s := a.GetSlice(5); len(s) != 5 {
		t.Fatal("nil arena GetSlice")
	}
	a.PutSlice(make([]float64, 5)) // must not panic
	if d := a.Get(2, 3); d.Rows != 2 || d.Cols != 3 {
		t.Fatal("nil arena Get")
	}
	a.Put(New(2, 3)) // must not panic
	if h, m := a.Stats(); h != 0 || m != 0 {
		t.Fatal("nil arena stats")
	}
}

func TestArenaZeroSize(t *testing.T) {
	a := NewArena()
	a.PutSlice(a.GetSlice(0)) // zero-length slabs are dropped, not pooled
	if len(a.free[0]) != 0 {
		t.Fatal("zero-length slab pooled")
	}
	if d := a.Get(0, 5); d.Rows != 0 || d.Cols != 5 {
		t.Fatal("zero-row dense")
	}
}

// TestArenaEmptySlabsHit: an idle rank's zero-size blocks are served
// without a miss, so its arena reaches steady state on the first call.
func TestArenaEmptySlabsHit(t *testing.T) {
	a := NewArena()
	for i := 0; i < 3; i++ {
		if s := a.GetSlice(0); s == nil || len(s) != 0 {
			t.Fatalf("GetSlice(0) = %v, want an empty non-nil slice", s)
		}
		a.Put(a.Get(0, 7))
	}
	if hits, misses := a.Stats(); misses != 0 || hits != 6 {
		t.Fatalf("stats %d/%d, want 6 hits and 0 misses", hits, misses)
	}
}

// TestArenaRefusesForeignSlabs: the arena only takes back what it
// handed out, so returning caller-built buffers cannot grow it.
func TestArenaRefusesForeignSlabs(t *testing.T) {
	a := NewArena()
	for i := 0; i < 10; i++ {
		a.Put(New(4, 4))
	}
	if n := len(a.free[16]); n != 0 {
		t.Fatalf("%d foreign slabs pooled, want 0", n)
	}
	s := a.GetSlice(16)
	a.PutSlice(s)
	a.PutSlice(make([]float64, 16)) // one more than was lent
	if n := len(a.free[16]); n != 1 {
		t.Fatalf("%d slabs pooled after one loan, want 1", n)
	}
}

// TestGemmSteadyStateAllocFree pins the allocation-flat property of the
// local compute engine: with operands and destination preallocated,
// repeated Gemm calls allocate nothing — the pack buffers come from the
// worker pool, so an engine's steady-state multiply stays off the
// garbage collector entirely.
func TestGemmSteadyStateAllocFree(t *testing.T) {
	a := Random(150, 300, 1)
	b := Random(300, 130, 2)
	c := New(150, 130)
	GemmSerial(NoTrans, NoTrans, 1, a, b, 0, c) // warm the pack pool
	allocs := testing.AllocsPerRun(10, func() {
		GemmSerial(NoTrans, NoTrans, 1, a, b, 0, c)
	})
	if allocs > 0 {
		t.Fatalf("steady-state GemmSerial allocates %.1f objects/call, want 0", allocs)
	}
}
