package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func span(rank int, kind obs.Kind, name string, start, end int) obs.Span {
	op := ""
	if kind != obs.KindStage {
		op = name
	}
	return obs.Span{Rank: rank, Kind: kind, Name: name, Op: op,
		Start: time.Duration(start) * time.Microsecond, End: time.Duration(end) * time.Microsecond}
}

// TestLedgerAddsUpToWallTime checks the attribution on a hand-built
// call: dispatch, the critical rank's layers and the unattributed gap
// add up to the call's wall time, and an idle rank stays apart.
func TestLedgerAddsUpToWallTime(t *testing.T) {
	spans := []obs.Span{
		span(benchLane, obs.KindStage, "bench:multiply", 0, 100),
		// Rank 0: redistribute 10, cannon 50 with 20 of exposed shift,
		// a 5 us gap, reduce-scatter 15.
		span(0, obs.KindStage, "redistribute-in", 5, 15),
		span(0, obs.KindStage, "cannon", 15, 65),
		span(0, obs.KindOverlap, "overlap:p2p", 20, 40),
		span(0, obs.KindComm, "p2p", 40, 60),
		span(0, obs.KindStage, "reduce-scatter", 70, 85),
		{Rank: 0, Kind: obs.KindComm, Name: "reduce_scatter", Op: "reduce_scatter",
			Start: 70 * time.Microsecond, End: 85 * time.Microsecond, SentBytes: 800, Peers: 1},
		// Rank 1 is idle: it only waits in redistribute-out.
		span(1, obs.KindStage, "redistribute-out", 5, 90),
	}
	var l ledger
	l.add(spans, 1)
	c := l.entries[0]
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	if got := us(c.dispatch); got != 15 {
		t.Errorf("dispatch = %v us, want 15 (5 before, 10 after)", got)
	}
	want := map[layer]float64{lRedist: 10, lShift: 20, lCompute: 30, lReduce: 15, lReplicate: 0}
	for ly, w := range want {
		if got := us(c.busy[ly]); got != w {
			t.Errorf("layer %d = %v us, want %v", ly, got, w)
		}
	}
	if got := c.unattributed; math.Abs(got-0.10) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.10 (rank 0's 5 us gap, and 5 us the idle rank runs past it)", got)
	}
	if got := us(c.idleWait); got != 85 {
		t.Errorf("idle wait = %v us, want 85", got)
	}
	if got := c.hiddenShare; math.Abs(got-20.0/55) > 1e-12 {
		t.Errorf("hidden share = %v, want 20/55", got)
	}
	if want := (collSize{100, 2}); l.reduce != want || l.allgather != (collSize{}) {
		t.Errorf("collective sizes: reduce-scatter %v, allgather %v", l.reduce, l.allgather)
	}
}
