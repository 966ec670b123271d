package main

import (
	"math"
	"runtime/metrics"
	"time"

	ca3dmm "repro"
	"repro/internal/dist"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Microbenchmarks time single calls into one layer's public functions
// at the sizes a workload uses, from outside the engine.

// runtimeCounters reads process-wide allocation and CPU counters.
type runtimeCounters struct {
	samples []metrics.Sample
}

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}}
}

// read returns allocated bytes, allocated objects and GC CPU seconds
// since process start.
func (rc *runtimeCounters) read() (bytes, objects, gcCPU float64) {
	metrics.Read(rc.samples)
	return float64(rc.samples[0].Value.Uint64()), float64(rc.samples[1].Value.Uint64()),
		rc.samples[2].Value.Float64()
}

// microTarget is the wall time a microbenchmark aims to run.
const microTarget = 150 * time.Millisecond

// reps picks a repetition count that runs about microTarget given the
// cost of one repetition, within [lo, hi].
func reps(one time.Duration, lo, hi int) int {
	n := int(microTarget / max(one, time.Microsecond))
	return min(max(n, lo), hi)
}

// collBench runs iters repetitions of op on a p-rank world after two
// warm-up repetitions and returns rank 0's time per repetition and the
// bytes allocated per repetition across the world.
func collBench(p, iters int, op func(c *mpi.Comm)) (per time.Duration, allocB float64, err error) {
	rc := newRuntimeCounters()
	var t0, t1 time.Time
	var a0, a1 float64
	_, err = mpi.Run(p, func(c *mpi.Comm) {
		op(c)
		op(c)
		c.Barrier()
		if c.Rank() == 0 {
			a0, _, _ = rc.read()
			t0 = time.Now()
		}
		for i := 0; i < iters; i++ {
			op(c)
		}
		c.Barrier()
		if c.Rank() == 0 {
			t1 = time.Now()
			a1, _, _ = rc.read()
		}
	})
	// The closing barrier is one more operation inside the window.
	return t1.Sub(t0) / time.Duration(iters), (a1 - a0) / float64(iters), err
}

// barrierBench returns the latency and allocation of one P=8 Barrier.
func barrierBench() (us, allocB float64, err error) {
	per, alloc, err := collBench(procs, 300, func(c *mpi.Comm) { c.Barrier() })
	return float64(per.Nanoseconds()) / 1e3, alloc, err
}

// allgatherBench returns the received GB/s per rank of an Allgather
// on group ranks, each contributing count elements.
func allgatherBench(count, group int) (float64, error) {
	send := make([]float64, count)
	return collGBps(group, 8*count*(group-1), func(c *mpi.Comm) { c.Allgather(send) })
}

// reduceScatterBench returns the sent GB/s per rank of a ring
// ReduceScatter on group ranks, each keeping a chunk of count elements.
func reduceScatterBench(count, group int) (float64, error) {
	send := make([]float64, count*group)
	return collGBps(group, 8*count*(group-1), func(c *mpi.Comm) { c.ReduceScatterBlock(send, count) })
}

// collGBps times op on group ranks, sized from one probe repetition,
// and returns bytes per repetition over its time.
func collGBps(group, bytes int, op func(c *mpi.Comm)) (float64, error) {
	probe, _, err := collBench(group, 1, op)
	if err != nil {
		return 0, err
	}
	per, _, err := collBench(group, reps(probe, 3, 2000), op)
	return float64(bytes) / per.Seconds() / 1e9, err
}

// routeBuildBench times dist.BuildRoute over every rank and every
// layout pair one call of each engine redistributes through: stored A
// and B to the native layouts, native C to the stored C.
func routeBuildBench(inst instance) float64 {
	build := func() {
		for _, r := range inst.residents() {
			pl := r.eng.Plan()
			aN, bN, cN := r.eng.NativeLayouts()
			for rk := 0; rk < procs; rk++ {
				dist.BuildRoute(r.aL, aN, pl.Cfg.TransA, rk)
				dist.BuildRoute(r.bL, bN, pl.Cfg.TransB, rk)
				dist.BuildRoute(cN, r.cL, false, rk)
			}
		}
	}
	return medianTime(build) * 1e6
}

// medianTime returns the median seconds of fn over enough repetitions
// to run about microTarget, at least three.
func medianTime(fn func()) float64 {
	var ts []float64
	start := time.Now()
	for len(ts) < 3 || time.Since(start) < microTarget {
		t0 := time.Now()
		fn()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// gemmBench returns the GFLOP/s of one local Gemm of op(A) m×k by
// k×n on threads workers.
func gemmBench(m, n, k int, transA bool, threads int) float64 {
	old := ca3dmm.SetGemmThreads(threads)
	defer ca3dmm.SetGemmThreads(old)
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	a := ca3dmm.Random(ar, ac, 1)
	b := ca3dmm.Random(k, n, 2)
	c := ca3dmm.NewMatrix(m, n)
	s := medianTime(func() { ca3dmm.Gemm(transA, false, 1, a, b, 0, c) })
	return 2 * float64(m) * float64(n) * float64(k) / s / 1e9
}

// tileShape is one active rank's share of the problem on the engine's
// grid: m/pm × k/pk times k/pk × n/pn.
func tileShape(e *ca3dmm.Engine) (m, n, k int) {
	pl := e.Plan()
	pm, pn, pk := e.GridDims()
	return ceilDiv(pl.M, pm), ceilDiv(pl.N, pn), ceilDiv(pl.K, pk)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// simAlg maps the algorithms the simulator prices; the 1D and 3D
// baselines have no model there.
var simAlg = map[ca3dmm.Algorithm]sim.Alg{
	ca3dmm.CA3DMM:      sim.AlgCA3DMM,
	ca3dmm.CA3DMMSumma: sim.AlgCA3DMMS,
	ca3dmm.COSMA:       sim.AlgCOSMA,
	ca3dmm.CARMA:       sim.AlgCARMA,
	ca3dmm.C25D:        sim.AlgCTF,
	ca3dmm.SUMMA:       sim.AlgSUMMA,
}

// simBench prices every priced engine of the instance with sim.Predict
// on the paper's machine and returns the time of one Predict call and
// the mean predicted call time. Workloads that store operands in their
// engines' native layouts are priced as Native, the rest as Col1D, the
// one conversion layout the model knows.
func simBench(inst instance, native bool) (predictUS, predictedMS float64, err error) {
	mach := sim.Phoenix()
	layout := sim.Col1D
	if native {
		layout = sim.Native
	}
	var specs []sim.Spec
	for _, r := range inst.residents() {
		pl := r.eng.Plan()
		alg, ok := simAlg[pl.Cfg.Algorithm]
		if !ok {
			continue
		}
		specs = append(specs, sim.Spec{M: pl.M, N: pl.N, K: pl.K, Ranks: procs,
			ThreadsPerRank: 1, Alg: alg, Layout: layout})
	}
	var total float64
	for _, s := range specs {
		est, perr := sim.Predict(mach, s)
		if perr != nil {
			return 0, 0, perr
		}
		total += est.Total
	}
	per := medianTime(func() {
		for _, s := range specs {
			sim.Predict(mach, s)
		}
	})
	n := float64(len(specs))
	if n == 0 {
		return math.NaN(), math.NaN(), nil
	}
	return per / n * 1e6, total / n * 1e3, nil
}
