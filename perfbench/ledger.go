package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// The ledger splits the wall time of one traced call into layers. It
// reads the spans the program already records: stage spans of the
// CA3DMM executors (redistribute-in/out, allgather, cannon or summa,
// reduce-scatter), comm spans of every runtime operation (the exposed
// part of a nonblocking one), and overlap spans (initiation to Wait of
// a nonblocking one). The call's own span comes from the benchmark.
//
// Per rank, every top-level span (a stage, or a comm span outside any
// stage) lands in exactly one layer:
//
//	redistribute  redistribute-in/out stages; alltoallv, scatterv, gatherv
//	replicate     allgather stage; allgather and bcast
//	shift         comm inside a cannon or summa stage; p2p
//	reduce        reduce-scatter stage; reduce_scatter, reduce, allreduce
//	compute       cannon or summa stage minus the comm inside it
//	other         any other comm (barrier, split traffic)
//
// Dispatch is the part of the call's wall time before the first rank
// starts its first span or after the last rank ends its last one. The
// critical rank is the active rank whose last span ends last; the rest
// of the wall time its spans do not cover is unattributed: its start
// delay behind the first rank, local work outside any stage, and for
// executors that record no stage spans, their local GEMMs.

// layer indexes the per-rank layer times.
type layer int

const (
	lRedist layer = iota
	lReplicate
	lShift
	lReduce
	lCompute
	lOther
	nLayers
)

var stageLayer = map[string]layer{
	"redistribute-in":  lRedist,
	"redistribute-out": lRedist,
	"allgather":        lReplicate,
	"reduce-scatter":   lReduce,
}

var commLayer = map[string]layer{
	"alltoallv":      lRedist,
	"scatterv":       lRedist,
	"gatherv":        lRedist,
	"allgather":      lReplicate,
	"bcast":          lReplicate,
	"p2p":            lShift,
	"reduce_scatter": lReduce,
	"reduce":         lReduce,
	"allreduce":      lReduce,
}

// computeStage reports whether a stage span is a local-GEMM loop whose
// nested comm is shift traffic.
func computeStage(name string) bool { return name == "cannon" || name == "summa" }

// rankLedger is one rank's share of one call.
type rankLedger struct {
	lo, hi   time.Duration // first span start, last span end
	covered  time.Duration // union of top-level spans
	layers   [nLayers]time.Duration
	hidden   time.Duration // union of overlap windows
	exposed  time.Duration // union of comm spans
	hasSpans bool
}

// callLedger is the per-call result the ledger accumulates.
type callLedger struct {
	wall, dispatch time.Duration
	unattributed   float64                // share of wall time
	busy           [nLayers]time.Duration // median over active ranks
	idleWait       time.Duration          // median over idle ranks, 0 if none
	hiddenShare    float64                // hidden / (hidden + exposed) over active ranks
	spans          int
}

// collSize is one collective's per-rank element count and group size.
type collSize struct {
	count, group int
}

// ledger accumulates per-call results and the largest allgather and
// reduce-scatter an active rank ran.
type ledger struct {
	entries   []callLedger
	allgather collSize // elements each rank contributes
	reduce    collSize // elements of each rank's result chunk
}

func larger(a, b collSize) collSize {
	if b.count > a.count {
		return b
	}
	return a
}

// add analyses the spans of one call, all of which lie in the call's
// bench:multiply span; ranks below active compute.
func (l *ledger) add(spans []obs.Span, active int) {
	var call obs.Span
	byRank := map[int][]obs.Span{}
	n := 0
	for _, s := range spans {
		if s.Rank == benchLane {
			if s.Name == "bench:multiply" {
				call = s
			}
			continue
		}
		n++
		byRank[s.Rank] = append(byRank[s.Rank], s)
		if s.Rank < active && s.Kind == obs.KindComm {
			// Both collectives move group-1 chunks per rank.
			switch {
			case s.Op == "allgather" && s.Peers > 0:
				l.allgather = larger(l.allgather, collSize{int(s.RecvBytes/8) / s.Peers, s.Peers + 1})
			case s.Op == "reduce_scatter" && s.Peers > 0:
				l.reduce = larger(l.reduce, collSize{int(s.SentBytes/8) / s.Peers, s.Peers + 1})
			}
		}
	}
	c := callLedger{wall: call.Dur(), spans: n}
	var crit rankLedger
	var busy [nLayers][]float64
	var idle []float64
	var hidden, comm time.Duration
	lo, hi := call.End, call.Start
	for rank, ss := range byRank {
		rl := analyseRank(ss)
		if !rl.hasSpans {
			continue
		}
		lo, hi = min(lo, rl.lo), max(hi, rl.hi)
		if rank >= active {
			idle = append(idle, float64(rl.hi-rl.lo))
			continue
		}
		if rl.hi > crit.hi {
			crit = rl
		}
		for i, d := range rl.layers {
			busy[i] = append(busy[i], float64(d))
		}
		hidden += rl.hidden
		comm += rl.hidden + rl.exposed
	}
	for i := range busy {
		if len(busy[i]) > 0 {
			c.busy[i] = time.Duration(median(busy[i]))
		}
	}
	if len(idle) > 0 {
		c.idleWait = time.Duration(median(idle))
	}
	if comm > 0 {
		c.hiddenShare = float64(hidden) / float64(comm)
	}
	if hi > lo {
		c.dispatch = c.wall - (hi - lo)
		c.unattributed = float64(hi-lo-crit.covered) / float64(c.wall)
	}
	l.entries = append(l.entries, c)
}

// analyseRank splits one rank's spans of one call into layers.
func analyseRank(ss []obs.Span) rankLedger {
	var rl rankLedger
	var stages, comms, overlaps []obs.Span
	for _, s := range ss {
		switch s.Kind {
		case obs.KindStage:
			stages = append(stages, s)
		case obs.KindComm:
			comms = append(comms, s)
		case obs.KindOverlap:
			overlaps = append(overlaps, s)
		}
	}
	var top []obs.Span
	for i, s := range append(stages, comms...) {
		if i == 0 {
			rl.lo, rl.hi = s.Start, s.End
		}
		rl.lo, rl.hi = min(rl.lo, s.Start), max(rl.hi, s.End)
		rl.hasSpans = true
	}
	for _, st := range stages {
		top = append(top, st)
		if computeStage(st.Name) {
			inner := union(within(comms, st))
			rl.layers[lShift] += inner
			rl.layers[lCompute] += st.Dur() - inner
			continue
		}
		ly, ok := stageLayer[st.Name]
		if !ok {
			ly = lOther
		}
		rl.layers[ly] += st.Dur()
	}
	for _, cs := range comms {
		if enclosed(cs, stages) {
			continue
		}
		top = append(top, cs)
		ly, ok := commLayer[cs.Op]
		if !ok {
			ly = lOther
		}
		rl.layers[ly] += cs.Dur()
	}
	rl.covered = union(top)
	rl.hidden = union(overlaps)
	rl.exposed = union(comms)
	return rl
}

func within(ss []obs.Span, outer obs.Span) []obs.Span {
	var out []obs.Span
	for _, s := range ss {
		if s.Start >= outer.Start && s.End <= outer.End {
			out = append(out, s)
		}
	}
	return out
}

func enclosed(s obs.Span, outers []obs.Span) bool {
	for _, o := range outers {
		if s.Start >= o.Start && s.End <= o.End {
			return true
		}
	}
	return false
}

// union is the length of the union of the spans' intervals.
func union(ss []obs.Span) time.Duration {
	iv := append([]obs.Span(nil), ss...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total, start, end time.Duration
	for i, s := range iv {
		switch {
		case i == 0:
			start, end = s.Start, s.End
		case s.Start > end:
			total += end - start
			start, end = s.Start, s.End
		case s.End > end:
			end = s.End
		}
	}
	if len(iv) > 0 {
		total += end - start
	}
	return total
}

// mean returns the mean of f over the recorded calls. Means, unlike
// medians, add up across layers and weigh every engine of a rotating
// workload by its share of the calls.
func (l *ledger) mean(f func(c callLedger) float64) float64 {
	var t float64
	for _, c := range l.entries {
		t += f(c)
	}
	return t / float64(len(l.entries))
}
