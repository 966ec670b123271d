package main

import (
	"fmt"
	"math"

	ca3dmm "repro"
)

// procs is the rank count of every workload.
const procs = 8

// benchLane is the recorder shard the benchmark's own spans go to. It
// sits past the ranks (0..procs-1) and the runtime's fabric lane
// (procs), so it never mixes with spans the program records.
const benchLane = procs + 1

// A workload turns a seed into inputs once and then builds resident
// instances on them: every instance is one set of engines with the
// operands scattered and the first (cold) call done.
type workload struct {
	name string
	// m, n, k is the shape of one call; 2mnk is its useful work.
	m, n, k int
	// transA is set when A is stored k x m and used transposed.
	transA bool
	// native is set when the operands are stored in the engines' native
	// layouts, so calls redistribute nothing.
	native bool
	// gen makes the seed's inputs (untimed) and returns the builder of
	// instances over them.
	gen func(w *workload, seed uint64) (builder, error)
}

// usefulFlops is the flop count of one call the caller asked for.
func (w *workload) usefulFlops() float64 {
	return 2 * float64(w.m) * float64(w.n) * float64(w.k)
}

// builder sets up one instance: NewEngine, ScatterBlocks and the cold
// call, with the benchmark's spans around each when rec is non-nil.
type builder func(cfg ca3dmm.Config, rec *ca3dmm.TraceRecorder) (instance, error)

// instance is a resident workload: warm calls on scattered operands.
type instance interface {
	// call issues one warm Engine.Multiply.
	call() error
	// check verifies the last call and advances the caller's loop. It
	// runs outside the timed region.
	check() bool
	// residents lists the engines in the order calls rotate over them.
	residents() []*resident
	// current is the engine the next call runs on.
	current() *ca3dmm.Engine
}

func engines(inst instance) []*ca3dmm.Engine {
	var out []*ca3dmm.Engine
	for _, r := range inst.residents() {
		out = append(out, r.eng)
	}
	return out
}

// workloads stress different layers; BENCHMARK.json says why each is
// there.
var workloads = []*workload{
	{
		// Latency-bound: tens of microseconds of GEMM per rank in a 0.4 ms call,
		// so the message path, dispatch and GC carry the time.
		name: "purify-64",
		m:    64, n: 64, k: 64,
		gen: genPurify,
	},
	{
		// The GEMM kernel and large shift and reduce messages dominate;
		// native layouts leave nothing to redistribute.
		name: "square-1024",
		m:    1024, n: 1024, k: 1024,
		native: true,
		gen:    genSquare,
	},
	{
		// Transpose redistribution from row blocks and a large
		// reduce-scatter on a 1x1x7 grid with one idle rank.
		name: "gram-rows",
		m:    128, n: 128, k: 32768,
		transA: true,
		gen:    genGram,
	},
	{
		// The only workload that runs the seven non-CA3DMM executors.
		name: "algo-sweep",
		m:    192, n: 192, k: 192,
		native: true,
		gen:    genSweep,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// resident is one engine with its operands scattered under fixed
// layouts and caller-owned C destination blocks.
type resident struct {
	eng        *ca3dmm.Engine
	aL, bL, cL ca3dmm.Layout
	a, b, c    []*ca3dmm.Matrix
}

// layoutFunc picks the stored layouts of A, B and C for an engine.
type layoutFunc func(e *ca3dmm.Engine) (aL, bL, cL ca3dmm.Layout)

func nativeLayouts(e *ca3dmm.Engine) (ca3dmm.Layout, ca3dmm.Layout, ca3dmm.Layout) {
	return e.NativeLayouts()
}

// newResident builds the engine, scatters a and b, allocates the C
// destinations and runs the cold call.
func newResident(w *workload, cfg ca3dmm.Config, rec *ca3dmm.TraceRecorder, a, b *ca3dmm.Matrix, layouts layoutFunc) (*resident, error) {
	end := rec.Begin(benchLane, "bench:new-engine")
	eng, err := ca3dmm.NewEngine(w.m, w.n, w.k, procs, cfg)
	end()
	if err != nil {
		return nil, err
	}
	r := &resident{eng: eng}
	r.aL, r.bL, r.cL = layouts(eng)
	end = rec.Begin(benchLane, "bench:scatter")
	r.a = ca3dmm.ScatterBlocks(a, r.aL)
	// gram-rows and purify-64 multiply a stored matrix by itself under
	// one layout, so one set of blocks serves as both operands.
	r.b = r.a
	if b != a {
		r.b = ca3dmm.ScatterBlocks(b, r.bL)
	}
	r.c = zeroBlocks(r.cL)
	end()
	if err := r.multiply(rec); err != nil {
		eng.Close()
		return nil, fmt.Errorf("cold call: %w", err)
	}
	return r, nil
}

func (r *resident) multiply(rec *ca3dmm.TraceRecorder) error {
	end := rec.Begin(benchLane, "bench:multiply")
	_, _, err := r.eng.Multiply(r.a, r.aL, r.b, r.bL, r.c, r.cL)
	end()
	return err
}

func zeroBlocks(l ca3dmm.Layout) []*ca3dmm.Matrix {
	out := make([]*ca3dmm.Matrix, l.Procs())
	for rk := range out {
		rows, cols := l.LocalShape(rk)
		out[rk] = ca3dmm.NewMatrix(rows, cols)
	}
	return out
}

// freivaldsTrials bounds a false accept at 2^-2 per call; a wrong C
// that persists across calls is caught with certainty in practice.
const freivaldsTrials = 2

// product is a workload whose every call computes the same C =
// op(A)·op(B) on resident engines, rotating over them; each result is
// checked with Freivalds on the assembled C.
type product struct {
	rec    *ca3dmm.TraceRecorder
	a, b   *ca3dmm.Matrix
	transA bool
	res    []*resident
	next   int // index of the engine the next call uses
	calls  uint64
	c      *ca3dmm.Matrix // the assembled C of the last call
}

func (p *product) call() error { return p.res[p.next].multiply(p.rec) }

func (p *product) check() bool {
	r := p.res[p.next]
	p.next = (p.next + 1) % len(p.res)
	p.calls++
	assembleInto(p.c, r.c, r.cL)
	return ca3dmm.Freivalds(p.a, p.b, p.c, p.transA, false, freivaldsTrials, p.calls)
}

func (p *product) residents() []*resident { return p.res }

func (p *product) current() *ca3dmm.Engine { return p.res[p.next].eng }

// productBuilder builds one resident engine per config over a and b.
func productBuilder(w *workload, a, b *ca3dmm.Matrix, transA bool, layouts layoutFunc, cfgs func(ca3dmm.Config) []ca3dmm.Config) builder {
	return func(cfg ca3dmm.Config, rec *ca3dmm.TraceRecorder) (instance, error) {
		p := &product{rec: rec, a: a, b: b, transA: transA, c: ca3dmm.NewMatrix(w.m, w.n)}
		for _, c := range cfgs(cfg) {
			r, err := newResident(w, c, rec, a, b, layouts)
			if err != nil {
				closeAll(engines(p))
				return nil, fmt.Errorf("%s %s: %w", w.name, c.Algorithm, err)
			}
			p.res = append(p.res, r)
		}
		return p, nil
	}
}

func single(cfg ca3dmm.Config) []ca3dmm.Config { return []ca3dmm.Config{cfg} }

func genSquare(w *workload, seed uint64) (builder, error) {
	a := ca3dmm.Random(w.m, w.k, seed)
	b := ca3dmm.Random(w.k, w.n, seed+1)
	return productBuilder(w, a, b, false, nativeLayouts, single), nil
}

// gramLayouts stores the tall panel A (k x m, used transposed) in row
// blocks, as a CholeskyQR panel lives, and C in a 4x2 block grid.
func gramLayouts(e *ca3dmm.Engine) (ca3dmm.Layout, ca3dmm.Layout, ca3dmm.Layout) {
	pl := e.Plan()
	a := ca3dmm.RowBlocks(pl.K, pl.M, procs)
	return a, a, ca3dmm.Blocks2D(pl.M, pl.N, 4, 2, procs)
}

func genGram(w *workload, seed uint64) (builder, error) {
	a := ca3dmm.Random(w.k, w.m, seed)
	gram := func(cfg ca3dmm.Config) []ca3dmm.Config {
		cfg.TransA = w.transA
		return []ca3dmm.Config{cfg}
	}
	return productBuilder(w, a, a, w.transA, gramLayouts, gram), nil
}

func genSweep(w *workload, seed uint64) (builder, error) {
	a := ca3dmm.Random(w.m, w.k, seed)
	b := ca3dmm.Random(w.k, w.n, seed+1)
	all := func(cfg ca3dmm.Config) []ca3dmm.Config {
		var out []ca3dmm.Config
		for _, alg := range ca3dmm.Algorithms() {
			cfg.Algorithm = alg
			out = append(out, cfg)
		}
		return out
	}
	return productBuilder(w, a, b, false, nativeLayouts, all), nil
}

// purifyIters is the length of one McWeeny cycle; the loop restarts
// from the trial density after it, so every call has a reference.
const purifyIters = 12

// purify runs X <- 3X² - 2X³ with X, X² and X³ resident in the
// engine's C layout: two warm calls per iteration.
type purify struct {
	rec       *ca3dmm.TraceRecorder
	res       *resident
	x0        *ca3dmm.Matrix
	x, x2, x3 []*ca3dmm.Matrix
	ref       []*ca3dmm.Matrix // facade results: X², X³ of each iteration
	step      int              // index into ref of the next call
	got       *ca3dmm.Matrix   // the assembled result of the last call
}

func (p *purify) call() error {
	r := p.res
	end := p.rec.Begin(benchLane, "bench:multiply")
	var err error
	if p.step%2 == 0 {
		_, _, err = r.eng.Multiply(p.x, r.cL, p.x, r.cL, p.x2, r.cL)
	} else {
		_, _, err = r.eng.Multiply(p.x2, r.cL, p.x, r.cL, p.x3, r.cL)
	}
	end()
	return err
}

// check compares the call's result bit for bit with the facade's,
// then applies the caller's update after an X³ call.
func (p *purify) check() bool {
	cL := p.res.cL
	got := p.x2
	if p.step%2 == 1 {
		got = p.x3
	}
	assembleInto(p.got, got, cL)
	ok := bitIdentical(p.got, p.ref[p.step])
	p.step++
	if !ok || p.step == len(p.ref) {
		p.restart()
		return ok
	}
	if p.step%2 == 0 {
		for rk := range p.x {
			for i := range p.x[rk].Data {
				p.x[rk].Data[i] = 3*p.x2[rk].Data[i] - 2*p.x3[rk].Data[i]
			}
		}
	}
	return ok
}

func (p *purify) restart() {
	p.step = 0
	for rk, blk := range ca3dmm.ScatterBlocks(p.x0, p.res.cL) {
		copy(p.x[rk].Data, blk.Data)
	}
}

func (p *purify) residents() []*resident { return []*resident{p.res} }

func (p *purify) current() *ca3dmm.Engine { return p.res.eng }

func genPurify(w *workload, seed uint64) (builder, error) {
	x0 := trialDensity(w.n, seed)
	// The reference loop runs through the one-shot facade.
	var ref []*ca3dmm.Matrix
	x := x0
	for it := 0; it < purifyIters; it++ {
		x2, _, _, err := ca3dmm.Multiply(x, x, procs, ca3dmm.Config{})
		if err != nil {
			return nil, fmt.Errorf("reference X²: %w", err)
		}
		x3, _, _, err := ca3dmm.Multiply(x2, x, procs, ca3dmm.Config{})
		if err != nil {
			return nil, fmt.Errorf("reference X³: %w", err)
		}
		ref = append(ref, x2, x3)
		next := ca3dmm.NewMatrix(w.n, w.n)
		for i := range next.Data {
			next.Data[i] = 3*x2.Data[i] - 2*x3.Data[i]
		}
		x = next
	}
	return func(cfg ca3dmm.Config, rec *ca3dmm.TraceRecorder) (instance, error) {
		cLayout := func(e *ca3dmm.Engine) (ca3dmm.Layout, ca3dmm.Layout, ca3dmm.Layout) {
			_, _, cL := e.NativeLayouts()
			return cL, cL, cL
		}
		r, err := newResident(w, cfg, rec, x0, x0, cLayout)
		if err != nil {
			return nil, fmt.Errorf("purify-64: %w", err)
		}
		p := &purify{rec: rec, res: r, x0: x0, ref: ref,
			x: r.a, x2: r.c, x3: zeroBlocks(r.cL), got: ca3dmm.NewMatrix(w.m, w.n)}
		// The cold call computed X·X of the first iteration.
		if !p.check() {
			r.eng.Close()
			return nil, fmt.Errorf("purify-64: cold call differs from the facade")
		}
		return p, nil
	}, nil
}

// trialDensity returns a symmetric n x n matrix Q Λ Qᵀ whose
// eigenvalues sit near 0 and near 1, the regime where McWeeny
// purification converges; Q is an orthonormalized random matrix.
func trialDensity(n int, seed uint64) *ca3dmm.Matrix {
	q := ca3dmm.Random(n, n, seed)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < n; i++ {
			norm += q.At(i, j) * q.At(i, j)
		}
		norm = math.Sqrt(norm)
		for i := 0; i < n; i++ {
			q.Set(i, j, q.At(i, j)/norm)
		}
		for l := j + 1; l < n; l++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += q.At(i, j) * q.At(i, l)
			}
			for i := 0; i < n; i++ {
				q.Set(i, l, q.At(i, l)-dot*q.At(i, j))
			}
		}
	}
	lam := ca3dmm.NewMatrix(n, n)
	eig := ca3dmm.Random(n, 1, seed+1)
	for i := 0; i < n; i++ {
		u := (eig.Data[i] + 1) / 2
		if i < n/2 {
			lam.Set(i, i, 0.85+0.13*u)
		} else {
			lam.Set(i, i, 0.02+0.13*u)
		}
	}
	return ca3dmm.GemmRef(ca3dmm.GemmRef(q, lam, false, false), q, false, true)
}

// assembleInto copies per-rank blocks under l into the global matrix
// dst, reusing its storage so checks do not feed the collector.
func assembleInto(dst *ca3dmm.Matrix, blocks []*ca3dmm.Matrix, l ca3dmm.Layout) {
	for rk, blk := range blocks {
		for _, pc := range l.Pieces(rk) {
			for i := 0; i < pc.Rows; i++ {
				copy(dst.Data[(pc.R0+i)*dst.Stride+pc.C0:][:pc.Cols],
					blk.Data[(pc.LR+i)*blk.Stride+pc.LC:][:pc.Cols])
			}
		}
	}
}

func bitIdentical(a, b *ca3dmm.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

func closeAll(engs []*ca3dmm.Engine) error {
	var first error
	for _, e := range engs {
		if _, err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
