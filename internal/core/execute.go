package core

import (
	"fmt"
	"time"

	"repro/internal/cannon"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/summa"
)

// Timings is the per-rank stage breakdown of one CA3DMM execution,
// matching the reference implementation's report (redistribute A/B/C,
// allgather A or B, 2D Cannon, reduce-scatter C). CannonComm includes
// the initial skew and the shift traffic, which the paper's Fig. 5
// folds into "replicate A, B".
type Timings struct {
	Redistribute  time.Duration
	Allgather     time.Duration
	CannonComm    time.Duration
	CannonComp    time.Duration
	ReduceScatter time.Duration
	Total         time.Duration
}

// MatmulOnly returns the runtime excluding the user-layout
// redistribution — the "matmul only" line of the reference output and
// the quantity plotted with library-native layouts in Fig. 3.
func (t *Timings) MatmulOnly() time.Duration {
	return t.Total - t.Redistribute
}

// Execute runs Algorithm 1 of the paper on the calling rank:
//
//  1. redistribute op(A) and op(B) from the user layouts into the
//     plan's native layouts (all P ranks participate, transposes are
//     folded into the exchange),
//  2. allgather-replicate the smaller matrix across Cannon groups
//     when c > 1,
//  3. run Cannon's algorithm in each Cannon group (or SUMMA for the
//     CA3DMM-S variant),
//  4. reduce-scatter the pk partial C results, and
//  5. redistribute C into the caller's requested layout.
//
// aLocal and bLocal are the caller's local blocks of A and B under
// aLayout and bLayout (layouts of the *stored* matrices: if TransA is
// set, aLayout describes the k x m stored A). The returned matrix is
// the caller's block of C under cLayout.
func (p *Plan) Execute(c *mpi.Comm, aLocal *mat.Dense, aLayout dist.Layout,
	bLocal *mat.Dense, bLayout dist.Layout, cLayout dist.Layout) (*mat.Dense, *Timings) {

	if c.Size() != p.P {
		panic(fmt.Sprintf("core: communicator size %d != plan size %d", c.Size(), p.P))
	}
	checkUserLayout("A", aLayout, p.M, p.K, p.TransA, p.P)
	checkUserLayout("B", bLayout, p.K, p.N, p.TransB, p.P)
	checkUserLayout("C", cLayout, p.M, p.N, false, p.P)

	tm := &Timings{}
	t0 := time.Now()

	// Step 4 (paper numbering): redistribute A and B into native
	// layouts, folding in op().
	tr := time.Now()
	endSpan := p.Opt.Trace.Begin(c.WorldRank(), "redistribute-in")
	aNat := dist.RedistributeOp(c, aLayout, aLocal, p.ALayout, p.TransA)
	bNat := dist.RedistributeOp(c, bLayout, bLocal, p.BLayout, p.TransB)
	endSpan()
	tm.Redistribute += time.Since(tr)
	natBytes := int64(8 * (len(aNat.Data) + len(bNat.Data)))
	c.RecordAlloc(natBytes)

	role := p.role(c.Rank())

	// Split communicators. Split is collective, so idle ranks
	// participate with Undefined colors.
	kanColor, kanKey, repColor, repKey, redColor, redKey := p.splitColors(c.Rank(), role)
	kanComm := c.Split(kanColor, kanKey)
	repComm := c.Split(repColor, repKey)
	redComm := c.Split(redColor, redKey)

	var cFinal *mat.Dense
	if !role.active {
		cr, cc := p.CLayout.LocalShape(c.Rank())
		cFinal = mat.New(cr, cc)
	} else if p.Opt.UseSUMMA {
		cFinal = p.executeSUMMA(kanComm, redComm, aNat, bNat, role, tm, c, nil)
	} else {
		cFinal = p.executeCannon(kanComm, repComm, redComm, aNat, bNat, role, tm, c, nil)
	}

	// Step 8: redistribute C to the user layout.
	tr = time.Now()
	endSpan = p.Opt.Trace.Begin(c.WorldRank(), "redistribute-out")
	cUser := dist.Redistribute(c, p.CLayout, cFinal, cLayout)
	endSpan()
	tm.Redistribute += time.Since(tr)

	c.ReleaseAlloc(natBytes)
	tm.Total = time.Since(t0)
	return cUser, tm
}

// splitColors computes the three communicator split colors and keys of
// one rank: the Cannon (or SUMMA) group, the replication group, and
// the reduce-scatter group. Idle ranks get Undefined everywhere. A
// persistent ExecState performs the three collective Splits once and
// then reuses the communicators across calls.
func (p *Plan) splitColors(rank int, role rankRole) (kanColor, kanKey, repColor, repKey, redColor, redKey int) {
	kanColor, repColor, redColor = mpi.Undefined, mpi.Undefined, mpi.Undefined
	if !role.active {
		return
	}
	kanColor = role.g*p.Crep + role.q
	if p.Opt.UseSUMMA {
		lr := rank % (p.G.Pm * p.G.Pn)
		i, j := lr%p.G.Pm, lr/p.G.Pm
		kanKey = i*p.G.Pn + j // row-major grid order for SUMMA
		redColor, redKey = lr, role.g
		return
	}
	// Cannon's kernel addresses rank r as grid position (r/s, r%s),
	// i.e. row-major; order the group that way.
	kanKey = role.i*p.S + role.j
	repColor = role.g*p.S*p.S + role.j*p.S + role.i
	repKey = role.q
	redColor = role.q*p.S*p.S + role.j*p.S + role.i
	redKey = role.g
	return
}

// padBlock is cannon.PadBlock drawing the padded copy from an arena.
func padBlock(ar *mat.Arena, local *mat.Dense, padRows, padCols int) *mat.Dense {
	if ar == nil {
		return cannon.PadBlock(local, padRows, padCols)
	}
	out := ar.Get(padRows, padCols)
	out.View(0, 0, local.Rows, local.Cols).CopyFrom(local)
	return out
}

// executeCannon performs steps 5-7 for an active rank using the Cannon
// kernel. Memory accounting follows eq. (11): after replication each
// rank holds (c·mk + kn)/P elements of A and B, doubled by the
// dual-buffer copies, plus the pk·mn/P partial C block.
//
// executeCannon takes ownership of aNat and bNat: when ar is non-nil
// their slabs (and every intermediate built here) are returned to the
// arena as they die, so a persistent caller's repeated executions are
// allocation-flat.
func (p *Plan) executeCannon(kanComm, repComm, redComm *mpi.Comm,
	aNat, bNat *mat.Dense, role rankRole, tm *Timings, world *mpi.Comm, ar *mat.Arena) *mat.Dense {

	k0, k1 := p.kRange(role.g)
	kg := k1 - k0
	m0, m1 := p.mRange(role.q)
	n0, n1 := p.nRange(role.q)

	cfg := cannon.Config{
		S: p.S, M: m1 - m0, K: kg, N: n1 - n0,
		DualBuffer: p.Opt.DualBuffer,
		Overlap:    p.Opt.Overlap,
		MultiShift: p.Opt.MultiShift,
		MinKBlock:  p.Opt.MinKBlock,
		ABFT:       p.Opt.ABFT,
		Arena:      ar,
	}
	am, ak, bn := cfg.BlockShape()

	// Step 5: replicate the split matrix across Cannon groups. Under
	// Overlap the allgather runs as an Iallgatherv and the padding of
	// the non-replicated matrix (a pure local copy) proceeds while it
	// is in flight; tm.Allgather then includes that pad, which is the
	// point — the copy is hidden inside the communication window.
	ta := time.Now()
	endSpan := p.Opt.Trace.Begin(world.WorldRank(), "allgather")
	var aBlock, bBlock, aPad, bPad *mat.Dense
	if p.Opt.Overlap && p.Crep > 1 {
		sub, isA := bNat, false
		if p.RepA {
			sub, isA = aNat, true
		}
		rows, cols, counts := p.replLayout(isA, role, cfg)
		// Iallgatherv snapshots its payload, so sub is dead as soon as
		// the request is issued.
		req := repComm.Iallgatherv(sub.Pack(), counts)
		if p.RepA {
			bBlock = bNat
			bPad = padBlock(ar, bBlock, ak, bn)
		} else {
			aBlock = aNat
			aPad = padBlock(ar, aBlock, am, ak)
		}
		full := assembleFrom(ar, req.Wait(), rows, cols, counts, isA)
		if p.RepA {
			aBlock = full
			world.RecordAlloc(int64(8 * (len(aBlock.Data) - len(aNat.Data))))
		} else {
			bBlock = full
			world.RecordAlloc(int64(8 * (len(bBlock.Data) - len(bNat.Data))))
		}
		ar.Put(sub)
	} else if p.RepA {
		aBlock = p.assembleReplicated(repComm, aNat, true, role, cfg, ar)
		bBlock = bNat
		world.RecordAlloc(int64(8 * (len(aBlock.Data) - len(aNat.Data))))
		if aBlock != aNat {
			ar.Put(aNat)
		}
	} else {
		aBlock = aNat
		bBlock = p.assembleReplicated(repComm, bNat, false, role, cfg, ar)
		world.RecordAlloc(int64(8 * (len(bBlock.Data) - len(bNat.Data))))
		if bBlock != bNat {
			ar.Put(bNat)
		}
	}
	endSpan()
	tm.Allgather += time.Since(ta)

	// Step 6: Cannon within the Cannon group. The padded copies stand
	// in for the dual buffers of the reference implementation. One of
	// the pads may already have been built under the allgather above.
	if aPad == nil {
		aPad = padBlock(ar, aBlock, am, ak)
	}
	if bPad == nil {
		bPad = padBlock(ar, bBlock, ak, bn)
	}
	// The unpadded blocks are dead once copied into the pads.
	ar.Put(aBlock)
	ar.Put(bBlock)
	padBytes := int64(8 * (len(aPad.Data) + len(bPad.Data)))
	world.RecordAlloc(padBytes)
	// Each rank performs S local GEMMs of (am x ak)·(ak x bn) during
	// the shift loop; attribute that work to the span for per-rank
	// FLOP/s in the observability report.
	span := p.Opt.Trace.Start(world.WorldRank(), "cannon")
	cPart, ktm := cannon.Multiply(kanComm, aPad, bPad, cfg)
	p.Opt.Trace.EndFlops(span, 2*int64(am)*int64(ak)*int64(bn)*int64(p.S))
	tm.CannonComm += ktm.Comm
	tm.CannonComp += ktm.Compute
	ar.Put(aPad)
	ar.Put(bPad)
	partBytes := int64(8 * len(cPart.Data))
	world.RecordAlloc(partBytes)

	// Step 7: reduce-scatter the pk partial results of this C block.
	endSpan = p.Opt.Trace.Begin(world.WorldRank(), "reduce-scatter")
	out := p.reduceScatterC(redComm, cPart, role, tm, ar)
	endSpan()
	if out != cPart {
		ar.Put(cPart)
	}
	world.ReleaseAlloc(padBytes)
	world.ReleaseAlloc(partBytes)
	return out
}

// assembleReplicated allgathers the c sub-blocks of this rank's Cannon
// block across the replication communicator and reassembles the full
// block. For A the split is by columns; for B by rows.
func (p *Plan) assembleReplicated(repComm *mpi.Comm, sub *mat.Dense, isA bool, role rankRole, cfg cannon.Config, ar *mat.Arena) *mat.Dense {
	if p.Crep == 1 {
		return sub
	}
	rows, cols, counts := p.replLayout(isA, role, cfg)
	all := repComm.Allgatherv(sub.Pack(), counts)
	return assembleFrom(ar, all, rows, cols, counts, isA)
}

// replLayout computes the assembled block shape and the per-replica
// element counts of the replication allgather. Split out from
// assembleReplicated so the overlapped path can initiate the
// Iallgatherv before doing local work.
func (p *Plan) replLayout(isA bool, role rankRole, cfg cannon.Config) (rows, cols int, counts []int) {
	if isA {
		_, _, rows, cols = cannon.ABlockOwned(cfg, role.i, role.j)
	} else {
		_, _, rows, cols = cannon.BBlockOwned(cfg, role.i, role.j)
	}
	counts = make([]int, p.Crep)
	for q := 0; q < p.Crep; q++ {
		if isA {
			lo, hi := dist.BlockRange(cols, p.Crep, q)
			counts[q] = rows * (hi - lo)
		} else {
			lo, hi := dist.BlockRange(rows, p.Crep, q)
			counts[q] = (hi - lo) * cols
		}
	}
	return rows, cols, counts
}

// assembleFrom reassembles the full rows x cols block from the
// concatenated allgather payload: replica q's slice is a column strip
// (A) or row strip (B) of the block.
func assembleFrom(ar *mat.Arena, all []float64, rows, cols int, counts []int, isA bool) *mat.Dense {
	full := ar.Get(rows, cols)
	crep := len(counts)
	off := 0
	for q := 0; q < crep; q++ {
		if counts[q] == 0 {
			continue
		}
		if isA {
			lo, hi := dist.BlockRange(cols, crep, q)
			full.View(0, lo, rows, hi-lo).Unpack(all[off : off+counts[q]])
		} else {
			lo, hi := dist.BlockRange(rows, crep, q)
			full.View(lo, 0, hi-lo, cols).Unpack(all[off : off+counts[q]])
		}
		off += counts[q]
	}
	return full
}

// reduceScatterC combines the pk partial results of this rank's C
// block: the block is column-split into pk parts and k-task group g
// keeps part g (the paper's step 7).
func (p *Plan) reduceScatterC(redComm *mpi.Comm, cPart *mat.Dense, role rankRole, tm *Timings, ar *mat.Arena) *mat.Dense {
	pk := p.G.Pk
	if pk == 1 {
		return cPart
	}
	ts := time.Now()
	rows, cols := cPart.Rows, cPart.Cols
	counts := make([]int, pk)
	for g := 0; g < pk; g++ {
		lo, hi := dist.BlockRange(cols, pk, g)
		counts[g] = rows * (hi - lo)
	}
	buf := ar.GetSlice(rows * cols)
	off := 0
	for g := 0; g < pk; g++ {
		if counts[g] == 0 {
			continue
		}
		lo, hi := dist.BlockRange(cols, pk, g)
		cPart.View(0, lo, rows, hi-lo).PackInto(buf[off : off+counts[g]])
		off += counts[g]
	}
	// ReduceScatter snapshots its input before combining, so the
	// staging buffer is recyclable as soon as the call returns.
	mine := redComm.ReduceScatter(buf, counts)
	ar.PutSlice(buf)
	lo, hi := dist.BlockRange(cols, pk, role.g)
	out := ar.Get(boundRows(rows, hi-lo), hi-lo)
	out.Unpack(mine)
	tm.ReduceScatter += time.Since(ts)
	return out
}

// executeSUMMA is the CA3DMM-S variant: each k-task group runs SUMMA
// on its pm x pn grid; the reduce-scatter step is identical.
func (p *Plan) executeSUMMA(kanComm, redComm *mpi.Comm,
	aNat, bNat *mat.Dense, role rankRole, tm *Timings, world *mpi.Comm, ar *mat.Arena) *mat.Dense {

	k0, k1 := p.kRange(role.g)
	kg := k1 - k0
	cfg := summa.Config{
		Pr: p.G.Pm, Pc: p.G.Pn,
		M: p.M, K: kg, N: p.N,
		Panel:    p.Opt.SUMMAPanel,
		Overlap:  p.Opt.Overlap,
		Prefetch: p.Opt.OverlapDepth,
		ABFT:     p.Opt.ABFT,
	}
	span := p.Opt.Trace.Start(world.WorldRank(), "summa")
	cPart, stm := summa.Multiply(kanComm, aNat, bNat, cfg)
	p.Opt.Trace.EndFlops(span, 2*int64(cPart.Rows)*int64(cPart.Cols)*int64(kg))
	tm.CannonComm += stm.Comm
	tm.CannonComp += stm.Compute
	ar.Put(aNat)
	ar.Put(bNat)
	partBytes := int64(8 * len(cPart.Data))
	world.RecordAlloc(partBytes)
	endSpan := p.Opt.Trace.Begin(world.WorldRank(), "reduce-scatter")
	out := p.reduceScatterC(redComm, cPart, role, tm, ar)
	endSpan()
	if out != cPart {
		ar.Put(cPart)
	}
	world.ReleaseAlloc(partBytes)
	return out
}

func checkUserLayout(name string, l dist.Layout, rows, cols int, trans bool, p int) {
	wr, wc := rows, cols
	if trans {
		wr, wc = cols, rows
	}
	if l.GlobalRows() != wr || l.GlobalCols() != wc {
		panic(fmt.Sprintf("core: %s layout is %dx%d, want %dx%d", name, l.GlobalRows(), l.GlobalCols(), wr, wc))
	}
	if l.Procs() != p {
		panic(fmt.Sprintf("core: %s layout spans %d ranks, want %d", name, l.Procs(), p))
	}
}
