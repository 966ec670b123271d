package mat

// Arena is a size-classed free list of float64 slabs for the buffers a
// fixed-shape multiplication needs on every call: packed native-layout
// operands, padded Cannon blocks, replication assemblies, and
// reduce-scatter staging. A persistent execution state (see
// internal/core.ExecState) owns one Arena per rank; after the first
// call every Get is served from the free list, so repeated multiplies
// of the same shape are allocation-flat.
//
// The arena only takes back what it handed out: per size class it
// counts the slabs on loan, and a Put with none of that size on loan
// is dropped for the garbage collector instead of pooled. A caller that
// returns a buffer it built itself therefore cannot grow the free list
// without bound.
//
// An Arena is deliberately not safe for concurrent use — each rank has
// its own. A nil *Arena is valid and degrades to plain allocation, so
// one code path serves both the one-shot and the persistent engine.
type Arena struct {
	free         map[int][][]float64
	lent         map[int]int // slabs of each length handed out, not yet returned
	hits, misses int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{free: make(map[int][][]float64), lent: make(map[int]int)}
}

// GetSlice returns a zeroed slice of length n, recycled when a slab of
// that exact length is free. An empty slice needs no slab and counts
// as a hit.
func (a *Arena) GetSlice(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if n == 0 {
		a.hits++
		return []float64{}
	}
	a.lent[n]++
	if l := a.free[n]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[n] = l[:len(l)-1]
		a.hits++
		clear(s)
		return s
	}
	a.misses++
	return make([]float64, n)
}

// PutSlice returns a slab to the free list. The caller must not touch
// it afterwards. Empty slices and slabs of a length the arena has none
// of on loan are dropped.
func (a *Arena) PutSlice(s []float64) {
	if a == nil || len(s) == 0 || a.lent[len(s)] == 0 {
		return
	}
	a.lent[len(s)]--
	a.free[len(s)] = append(a.free[len(s)], s)
}

// Get returns a zeroed r x c matrix backed by an arena slab —
// mat.New semantics with recycling.
func (a *Arena) Get(r, c int) *Dense {
	if a == nil {
		return New(r, c)
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: a.GetSlice(r * c)}
}

// Put returns a matrix's backing slab to the free list. Views (whose
// stride exceeds their width) are ignored: the slab belongs to the
// parent. The caller must not touch d afterwards.
func (a *Arena) Put(d *Dense) {
	if a == nil || d == nil || d.Stride != d.Cols {
		return
	}
	a.PutSlice(d.Data)
}

// Stats reports the cumulative free-list hits and misses — the
// allocation-flat regression tests assert that misses stop growing
// once a shape's steady state is reached.
func (a *Arena) Stats() (hits, misses int64) {
	if a == nil {
		return 0, 0
	}
	return a.hits, a.misses
}
