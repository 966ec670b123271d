package main

import (
	"fmt"
	"runtime"
	"time"

	ca3dmm "repro"
)

// probeCalls is the number of warm calls the exact-count probe runs; a
// multiple of eight, so algo-sweep calls every engine equally often.
const probeCalls = 8

// counts are exact per-warm-call totals over all ranks.
type counts struct {
	msgs, bytes, flops float64
}

// probeCounts measures the exact message, byte and GEMM-flop counts of
// one warm call: the totals of a set-up followed by probeCalls warm
// calls, minus those of a set-up alone, over probeCalls. Messages and
// bytes come from the runtime's report at Close; flops from the GEMM
// counter read around each call.
func probeCounts(build builder) (counts, error) {
	total := func(calls int) (msgs, bytes, flops int64, err error) {
		inst, err := build(ca3dmm.Config{}, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < calls; i++ {
			f0 := ca3dmm.GemmFlopCount()
			cerr := inst.call()
			flops += ca3dmm.GemmFlopCount() - f0
			if cerr == nil && !inst.check() {
				cerr = errWrong
			}
			if cerr != nil {
				closeAll(engines(inst))
				return 0, 0, 0, cerr
			}
		}
		for _, e := range engines(inst) {
			rep, cerr := e.Close()
			if cerr != nil {
				return 0, 0, 0, cerr
			}
			for _, r := range rep.Ranks {
				msgs += r.MsgsSent
				bytes += r.BytesSent
			}
		}
		return msgs, bytes, flops, nil
	}
	m0, b0, _, err := total(0)
	if err != nil {
		return counts{}, fmt.Errorf("count probe: %w", err)
	}
	m1, b1, f1, err := total(probeCalls)
	if err != nil {
		return counts{}, fmt.Errorf("count probe: %w", err)
	}
	n := float64(probeCalls)
	return counts{float64(m1-m0) / n, float64(b1-b0) / n, float64(f1) / n}, nil
}

// runtimeCost is what the untraced phase of a traced run measures.
type runtimeCost struct {
	tally
	allocBytes, allocs float64 // per warm call, around Multiply only
	gcFraction         float64 // GC CPU over GOMAXPROCS x wall time of the phase
	arenaMisses        float64 // per warm call, summed over ranks
	routeMisses        float64 // per warm call, summed over ranks
}

// measureRuntime issues untraced warm calls for d, counting
// allocations around each call and engine cache misses.
func measureRuntime(build builder, d time.Duration) (*runtimeCost, error) {
	res := &runtimeCost{}
	rc := newRuntimeCounters()
	var arena0, route0, arenaN, routeN int64
	var gc0, gcCPU, wall float64
	stats := func(inst instance) (arena, route int64) {
		for _, e := range engines(inst) {
			s := e.Stats()
			arena += s.ArenaMisses
			route += s.RouteMisses
		}
		return arena, route
	}
	var b0, o0, allocB, allocN float64
	inCall := false
	around := func() {
		b, o, _ := rc.read()
		if inCall {
			allocB += b - b0
			allocN += o - o0
		}
		b0, o0, inCall = b, o, !inCall
	}
	err := inRounds(build, ca3dmm.Config{}, nil, d, d/2,
		func(r *round) {
			arena0, route0 = stats(r.inst)
			_, _, gc0 = rc.read()
		},
		func(r *round) { res.call(r.inst, around) },
		func(r *round) {
			_, _, gc1 := rc.read()
			gcCPU += gc1 - gc0
			wall += time.Since(r.start).Seconds()
			arena1, route1 := stats(r.inst)
			arenaN += arena1 - arena0
			routeN += route1 - route0
		})
	if err != nil {
		return nil, err
	}
	n := float64(res.calls)
	res.allocBytes, res.allocs = allocB/n, allocN/n
	// The runtime updates its GC CPU estimate when a cycle ends, so over
	// phases with many cycles the delta is close to the true share.
	res.gcFraction = gcCPU / (float64(runtime.GOMAXPROCS(0)) * wall)
	res.arenaMisses = float64(arenaN) / n
	res.routeMisses = float64(routeN) / n
	return res, nil
}

// traceCost is what the traced phase measures.
type traceCost struct {
	tally
	ledger
	dropped int64
	inst    instance // the last round's, closed; kept for layouts and plans
}

// measureTraced issues warm calls for d with Config.Trace attached.
// After each call the spans are analysed and the recorder's shards
// cleared, so memory stays flat over long phases.
func measureTraced(build builder, d time.Duration) (*traceCost, error) {
	rec := ca3dmm.NewTraceRecorder()
	res := &traceCost{}
	reset := func() {
		for r := 0; r <= benchLane; r++ {
			rec.ResetRank(r)
		}
	}
	err := inRounds(build, ca3dmm.Config{Trace: rec}, rec, d, d/2,
		func(r *round) { reset() },
		func(r *round) {
			active := r.inst.current().Plan().ActiveProcs()
			res.call(r.inst, nil)
			res.add(rec.Spans(), active)
			reset()
		},
		func(r *round) { res.inst = r.inst })
	res.dropped = rec.Dropped()
	return res, err
}

// phaseShare is the share of --seconds each of the untraced and traced
// phases of a traced run gets; the probes and microbenchmarks take a
// few seconds more.
const phaseShare = 0.4

// runTraced measures the per-layer metrics of one workload.
func runTraced(w *workload, build builder, seconds float64) (*result, error) {
	phase := time.Duration(seconds * phaseShare * float64(time.Second))
	u, err := measureRuntime(build, phase)
	if err != nil {
		return nil, err
	}
	t, err := measureTraced(build, phase)
	if err != nil {
		return nil, err
	}
	cnt, err := probeCounts(build)
	if err != nil {
		return nil, err
	}

	barrierUS, barrierAlloc, err := barrierBench()
	if err != nil {
		return nil, fmt.Errorf("barrier: %w", err)
	}
	// Collectives are measured at the largest size the traced calls ran;
	// a workload that never runs one, at one C block of mn/P elements
	// per rank.
	fallback := w.m * w.n / procs
	ag, rs := t.allgather, t.reduce
	if ag.count == 0 {
		ag = collSize{fallback, procs}
	}
	if rs.count == 0 {
		rs = collSize{fallback, procs}
	}
	agGBps, err := allgatherBench(ag.count, ag.group)
	if err != nil {
		return nil, fmt.Errorf("allgather: %w", err)
	}
	rsGBps, err := reduceScatterBench(rs.count, rs.group)
	if err != nil {
		return nil, fmt.Errorf("reduce-scatter: %w", err)
	}
	fmt.Printf("%-12s collective sizes: allgather %d elements x %d ranks, reduce-scatter %d elements x %d ranks\n",
		w.name, ag.count, ag.group, rs.count, rs.group)
	routeUS := routeBuildBench(t.inst)
	tm, tn, tk := tileShape(engines(t.inst)[0])
	tileGF := gemmBench(tm, tn, tk, false, 1)
	wholeGF := gemmBench(w.m, w.n, w.k, w.transA, ca3dmm.GemmThreads())
	predUS, predMS, err := simBench(t.inst, w.native)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	ms := func(f func(c callLedger) time.Duration) float64 {
		return t.mean(func(c callLedger) float64 { return float64(f(c)) }) / 1e6
	}
	layerMS := func(l layer) float64 { return ms(func(c callLedger) time.Duration { return c.busy[l] }) }
	untracedP50 := median(u.callUS)
	tracedP50 := median(t.callUS)
	attempted := u.calls + t.calls
	failed := u.failed + t.failed
	m := map[string]metric{
		"engine.dispatch_us":           {ms(func(c callLedger) time.Duration { return c.dispatch }) * 1e3, "us"},
		"engine.arena_misses_per_call": {u.arenaMisses, "count"},
		"engine.unattributed_share":    {t.mean(func(c callLedger) float64 { return c.unattributed }), "ratio"},
		"engine.idle_rank_ms":          {ms(func(c callLedger) time.Duration { return c.idleWait }), "ms"},
		"go.alloc_bytes_per_call":      {u.allocBytes, "B"},
		"go.allocs_per_call":           {u.allocs, "count"},
		"go.gc_cpu_fraction":           {u.gcFraction, "ratio"},
		"mpi.msgs_per_call":            {cnt.msgs, "count"},
		"mpi.bytes_per_call":           {cnt.bytes, "B"},
		"mpi.barrier_us":               {barrierUS, "us"},
		"mpi.barrier_alloc_b":          {barrierAlloc, "B"},
		"mpi.allgather_gbps":           {agGBps, "GB/s"},
		"mpi.reduce_scatter_gbps":      {rsGBps, "GB/s"},
		"dist.redistribute_ms":         {layerMS(lRedist), "ms"},
		"dist.route_misses_per_call":   {u.routeMisses, "count"},
		"dist.route_build_us":          {routeUS, "us"},
		"stage.replicate_ms":           {layerMS(lReplicate), "ms"},
		"stage.shift_ms":               {layerMS(lShift), "ms"},
		"stage.reduce_ms":              {layerMS(lReduce), "ms"},
		"stage.other_comm_ms":          {layerMS(lOther), "ms"},
		"stage.hidden_comm_share":      {t.mean(func(c callLedger) float64 { return c.hiddenShare }), "ratio"},
		"mat.compute_ms":               {layerMS(lCompute), "ms"},
		"mat.tile_gflops":              {tileGF, "GFLOP/s"},
		"mat.flops_per_call":           {cnt.flops, "flop"},
		"mat.useful_flop_ratio":        {w.usefulFlops() / cnt.flops, "ratio"},
		"mat.whole_gemm_gflops":        {wholeGF, "GFLOP/s"},
		"sim.predict_us":               {predUS, "us"},
		"sim.predicted_ms":             {predMS, "ms"},
		"trace.call_p50_us":            {tracedP50, "us"},
		"trace.untraced_call_p50_us":   {untracedP50, "us"},
		"trace.overhead_share":         {tracedP50/untracedP50 - 1, "ratio"},
		"trace.spans_per_call":         {t.mean(func(c callLedger) float64 { return float64(c.spans) }), "count"},
		"trace.dropped_spans":          {float64(t.dropped), "count"},
		"fail_ratio":                   {float64(failed) / float64(attempted), "ratio"},
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
