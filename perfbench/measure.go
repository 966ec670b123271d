package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	ca3dmm "repro"
)

// rounds is the nominal number of rounds in one run. A round sets the
// workload up and measures warm calls for seconds/rounds; every
// end-to-end metric is the median over rounds of its per-round value,
// which keeps a burst of load from other processes on the machine in
// one round out of the result.
const rounds = 10

// heapCap ends a round early once the live heap has grown this much
// since its set-up: closing the round's engines releases what a leaking
// engine retained, so a run stays within a few hundred MB. Rounds
// continue until the run has measured its seconds of warm calls.
const heapCap = 256 << 20

var errWrong = errors.New("wrong result")

// tally counts the warm calls of a phase.
type tally struct {
	callUS        []float64 // wall time of every warm call
	calls, failed int       // calls attempted; calls that errored or failed their check
}

// call issues one timed warm call on inst and checks its result
// outside the clock. around, when non-nil, runs just before the clock
// starts and just after it stops.
func (t *tally) call(inst instance, around func()) {
	if around != nil {
		around()
	}
	t0 := time.Now()
	err := inst.call()
	d := time.Since(t0)
	if around != nil {
		around()
	}
	t.calls++
	t.callUS = append(t.callUS, float64(d.Nanoseconds())/1e3)
	if err == nil && !inst.check() {
		err = errWrong
	}
	if err != nil {
		t.failed++
		if t.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: call %d: %v\n", t.calls, err)
		}
	}
}

// e2e is what an untraced run measures, per round.
type e2e struct {
	tally
	setupS   []float64 // NewEngine + scatter + cold call
	gflops   []float64 // useful flops over the summed warm-call time
	p50, p90 []float64 // warm-call wall time quantiles, us
	grownB   float64   // live-heap growth summed over rounds
}

// growthKB is the live heap retained per warm call over the run: the
// sum of the rounds' growth over the sum of their calls, so a one-off
// allocation in one round is spread over all calls.
func (r *e2e) growthKB() float64 { return r.grownB / float64(r.calls) / 1024 }

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setup builds one instance after a collection, so one round's garbage
// is not collected during the next round's clock.
func setup(build builder, cfg ca3dmm.Config, rec *ca3dmm.TraceRecorder) (instance, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := build(cfg, rec)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return inst, time.Since(t0), nil
}

// round is one set-up of a workload and its warm calls.
type round struct {
	inst  instance
	setup time.Duration // NewEngine + scatter + cold call
	heap0 float64       // live heap after set-up
	start time.Time     // first warm call
}

// inRounds issues warm calls for total wall time in rounds. A round
// sets a fresh instance up, calls it until per has elapsed, the total
// is used up or the live heap has grown by heapCap, and closes it.
// begin and end run around each round's calls, outside any clock.
func inRounds(build builder, cfg ca3dmm.Config, rec *ca3dmm.TraceRecorder, total, per time.Duration,
	begin, call, end func(r *round)) error {
	// The live heap the last collection marked, read without forcing one.
	marked := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	grown := func(r *round) bool {
		metrics.Read(marked)
		return float64(marked[0].Value.Uint64())-r.heap0 >= heapCap
	}
	for warm := time.Duration(0); warm < total; {
		inst, d, err := setup(build, cfg, rec)
		if err != nil {
			return err
		}
		r := &round{inst: inst, setup: d, heap0: liveHeap()}
		begin(r)
		r.start = time.Now()
		for el := time.Duration(0); el < per && warm+el < total && !grown(r); el = time.Since(r.start) {
			call(r)
		}
		warm += time.Since(r.start)
		end(r)
		if err := closeAll(engines(inst)); err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}
	return nil
}

// measureE2E measures seconds of warm calls in rounds of seconds/rounds.
// Only Multiply is inside the clock; checks and the two live-heap
// samples of a round, one after set-up and one after the last call,
// run outside it.
func measureE2E(build builder, usefulFlops, seconds float64) (*e2e, error) {
	res := &e2e{}
	total := time.Duration(seconds * float64(time.Second))
	calls0 := 0
	err := inRounds(build, ca3dmm.Config{}, nil, total, total/rounds,
		func(r *round) { calls0 = res.calls },
		func(r *round) { res.call(r.inst, nil) },
		func(r *round) {
			h1 := liveHeap()
			us := res.callUS[calls0:]
			res.setupS = append(res.setupS, r.setup.Seconds())
			res.gflops = append(res.gflops, usefulFlops*float64(len(us))/sum(us)/1e3)
			res.p50 = append(res.p50, median(us))
			res.p90 = append(res.p90, quantile(us, 0.9))
			res.grownB += h1 - r.heap0
			i := len(res.p50) - 1
			fmt.Fprintf(os.Stderr, "perfbench: round %d: setup %.4fs, %d calls, %.4g GFLOP/s, p50 %.1fus, heap %.1fKB/call, live %.1fMB\n",
				i, r.setup.Seconds(), len(us), res.gflops[i], res.p50[i], (h1-r.heap0)/float64(len(us))/1024, h1/1e6)
		})
	return res, err
}
