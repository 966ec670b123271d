package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// This file is the deterministic fault-injection layer of the runtime.
// A FaultPlan attached to Options hooks the message router: per seeded
// RNG and per-rank/op/call-count predicates it can delay, duplicate,
// reorder, or bit-flip messages, crash a rank outright, or turn it into
// a persistent straggler. Every injection that fires is recorded in the
// afflicted rank's Stats, so chaos tests can assert exactly which
// faults fired. Because each rank's decision stream depends only on
// (plan seed, world rank, the rank's own op call order), injection
// decisions are reproducible across runs regardless of goroutine
// interleaving.

// Typed fault-tolerance errors. Operations touching a crashed rank
// abort with an error wrapping ErrRankFailed instead of waiting for the
// deadlock timeout; operations on a revoked communicator abort with an
// error wrapping ErrRevoked (which itself wraps ErrRankFailed, since
// revocation is how failure news spreads).
var (
	// ErrRankFailed reports that a rank of the communicator has
	// failed (ULFM MPI_ERR_PROC_FAILED analogue).
	ErrRankFailed = errors.New("mpi: rank failed")
	// ErrRevoked reports that the communicator was revoked by some
	// rank after it observed a failure (ULFM MPI_ERR_REVOKED).
	ErrRevoked = fmt.Errorf("mpi: communicator revoked: %w", ErrRankFailed)
	// ErrTimeout reports a blocking operation that exceeded the
	// run's deadlock timeout.
	ErrTimeout = errors.New("mpi: operation timed out")
	// ErrUnreachable reports a peer that exhausted the reliable
	// transport's retransmit budget or the failure detector's confirm
	// threshold — dead or partitioned beyond recovery. It wraps
	// ErrRankFailed so the Revoke/Agree/Shrink recovery path absorbs it
	// like a crash.
	ErrUnreachable = fmt.Errorf("mpi: rank unreachable: %w", ErrRankFailed)
)

// RankFailure is the typed error carried by a rank's process loss —
// an injected crash, or a peer fenced by the failure detector /
// retransmit budget (Cause wrapping ErrUnreachable). The rank's
// goroutine unwinds with it, peers observe it as the cause behind
// their ErrRankFailed aborts, and Run reports it when the failure was
// never absorbed by a Shrink.
type RankFailure struct {
	Rank  int    // world rank that was lost
	Op    string // operation during which the loss fired ("net" for fencing)
	Call  int64  // the rank's op-event index at the crash (0 for fencing)
	Cause error  // non-nil for detector/transport fencing
}

func (e *RankFailure) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("mpi: rank %d lost: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("mpi: rank %d crashed during %s (op event %d)", e.Rank, e.Op, e.Call)
}

// Unwrap lets errors.Is(err, ErrRankFailed) match any rank loss, and
// errors.Is(err, ErrUnreachable) match a fencing specifically.
func (e *RankFailure) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	return ErrRankFailed
}

// FaultKind enumerates the injectable fault types.
type FaultKind int

// The fault vocabulary.
const (
	// FaultCrash unwinds the rank's goroutine with a RankFailure,
	// simulating a process loss.
	FaultCrash FaultKind = iota
	// FaultCorrupt flips one bit of one element of an outgoing
	// message payload (silent data corruption).
	FaultCorrupt
	// FaultDelay delivers an outgoing message asynchronously after
	// Delay, letting later traffic overtake it.
	FaultDelay
	// FaultDuplicate enqueues an outgoing message twice.
	FaultDuplicate
	// FaultReorder holds an outgoing message back and swaps it with
	// the rank's next outgoing message.
	FaultReorder
	// FaultStraggle makes the rank sleep Delay before every
	// subsequent communication event (persistent slow rank).
	FaultStraggle
	// FaultDrop makes an outgoing message vanish in the fabric. The
	// reliable transport (enabled automatically by this kind) recovers
	// it via retransmission; with Options.Unreliable the loss stands
	// and the receiver eventually aborts with ErrTimeout.
	FaultDrop
	// FaultPartition black-holes all traffic between the spec's Group
	// of ranks and the rest of the world for Delay (0 = permanent,
	// until the minority side is fenced away). The firing rank's side
	// is irrelevant: the partition is a property of the fabric.
	FaultPartition
	// FaultFlipCompute flips one bit of one element of a local GEMM
	// output tile (silent compute corruption). It fires at "gemm"
	// compute events — which only the ABFT-guarded execution path
	// presents — never at communication events.
	FaultFlipCompute
	// FaultFlipMem flips one bit of one element of a resident operand
	// buffer between its checksum encode and its use (silent memory
	// corruption). It fires at "mem" compute events only.
	FaultFlipMem
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultCorrupt:
		return "corrupt"
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultStraggle:
		return "straggle"
	case FaultDrop:
		return "drop"
	case FaultPartition:
		return "partition"
	case FaultFlipCompute:
		return "flip-compute"
	case FaultFlipMem:
		return "flip-mem"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultSpec is one injection rule. A rule matches a communication event
// (a point-to-point send or receive, or a collective call) on a rank
// when the rank, the operation name, and the firing predicate all
// match. Firing is either deterministic-by-index (Prob == 0: fire at
// the rank's Call-th matching event, exactly once) or probabilistic
// (Prob > 0: fire with probability Prob at every matching event, drawn
// from the plan's seeded per-rank RNG — still reproducible for a fixed
// seed).
type FaultSpec struct {
	Kind FaultKind
	// Rank is the afflicted world rank; -1 afflicts every rank.
	Rank int
	// Op filters by operation name ("p2p", "allgather",
	// "reduce_scatter", ...); empty matches every operation.
	Op string
	// Call is the 0-based per-rank matching-event index at which the
	// rule fires when Prob is zero.
	Call int64
	// Prob, when positive, fires the rule probabilistically at every
	// matching event instead of by index.
	Prob float64
	// Delay is the magnitude for FaultDelay and FaultStraggle
	// (default 1ms when zero).
	Delay time.Duration
	// Bit is the bit index flipped by FaultCorrupt, FaultFlipCompute,
	// and FaultFlipMem. 0–63 addresses the float64 element the rule
	// lands on; 64–127 addresses bit−64 of the element's pair partner
	// (the imaginary component when the payload carries complex128
	// values as [re, im] float64 pairs).
	Bit int
	// Group is one side of a FaultPartition (world ranks); the other
	// side is its complement. Empty selects the upper half of the
	// world, leaving rank 0 with the majority (or the tie-break).
	Group []int
}

// FaultPlan is a seeded set of injection rules, attached via
// Options.Fault. The zero plan injects nothing.
type FaultPlan struct {
	Seed  uint64
	Specs []FaultSpec
}

// Injection records one fired fault in the afflicted rank's Stats.
type Injection struct {
	Kind FaultKind
	Op   string // operation the fault fired on
	Call int64  // the rank's op-event index when it fired
	Peer int    // destination world rank for message faults (-1 otherwise)
}

func (i Injection) String() string {
	return fmt.Sprintf("%s@%s#%d->%d", i.Kind, i.Op, i.Call, i.Peer)
}

const defaultFaultDelay = time.Millisecond

// injector is the per-rank fault engine, shared by every Comm the rank
// derives, so call counts span communicators. The rank's nonblocking
// operations run their communication on background goroutines that
// share this injector, so the event hook serializes on mu: the rank
// still has one fault-decision stream, its events just interleave with
// those of its own in-flight requests.
type injector struct {
	mu    sync.Mutex
	plan  *FaultPlan
	rank  int
	rng   *rand.Rand
	calls int64 // fault events observed so far (comm and compute, all ops)
	fired []bool
	seen  []int64       // per-spec count of matching events observed
	slow  time.Duration // nonzero after a straggle fault fires
	flips bool          // plan contains FaultFlipCompute/FaultFlipMem specs

	// reorder stash: one held-back message waiting to be swapped with
	// the rank's next send.
	pending    envelope
	pendingKey boxKey
	pendingOp  string
	hasPending bool
}

func newInjector(plan *FaultPlan, rank int) *injector {
	if plan == nil || len(plan.Specs) == 0 {
		return nil
	}
	// Derive a distinct, stable stream per rank so decisions do not
	// depend on cross-rank scheduling.
	in := &injector{
		plan:  plan,
		rank:  rank,
		rng:   rand.New(rand.NewPCG(plan.Seed, 0x9e3779b97f4a7c15^uint64(rank))),
		fired: make([]bool, len(plan.Specs)),
		seen:  make([]int64, len(plan.Specs)),
	}
	for i := range plan.Specs {
		if k := plan.Specs[i].Kind; k == FaultFlipCompute || k == FaultFlipMem {
			in.flips = true
		}
	}
	return in
}

// match reports the index of the first spec firing at this event, or
// -1. A spec's Call index counts that spec's own matching events on
// this rank (so {Op: "allreduce", Call: 2} fires at the rank's third
// allreduce, regardless of interleaved traffic). Every matching
// probabilistic spec consumes one RNG draw whether or not it fires,
// keeping the stream aligned with the event sequence.
func (in *injector) match(op string, send bool) int {
	hit := -1
	for i := range in.plan.Specs {
		s := &in.plan.Specs[i]
		if s.Rank != -1 && s.Rank != in.rank {
			continue
		}
		if s.Op != "" && s.Op != op {
			continue
		}
		// Message-mutating faults only make sense on send events; do
		// not let receives consume their firing predicate. Compute
		// flips never match communication events at all — their
		// predicates (and RNG draws) belong to the compute stream, so
		// adding flip specs to a plan cannot perturb when the plan's
		// communication faults fire.
		switch s.Kind {
		case FaultCorrupt, FaultDuplicate, FaultReorder, FaultDrop:
			if !send {
				continue
			}
		case FaultFlipCompute, FaultFlipMem:
			continue
		}
		idx := in.seen[i]
		in.seen[i]++
		if s.Prob > 0 {
			if in.rng.Float64() < s.Prob && hit < 0 {
				hit = i
			}
			continue
		}
		if !in.fired[i] && s.Call == idx && hit < 0 {
			hit = i
			in.fired[i] = true
		}
	}
	return hit
}

// matchCompute is match for compute events ("gemm" output tiles,
// "mem" resident operands). Only flip specs participate: their seen
// counters and RNG draws live entirely in the compute stream, and the
// comm-side match skips them symmetrically, so the two decision
// streams cannot perturb each other.
func (in *injector) matchCompute(op string) int {
	hit := -1
	for i := range in.plan.Specs {
		s := &in.plan.Specs[i]
		switch s.Kind {
		case FaultFlipCompute:
			if op != "gemm" {
				continue
			}
		case FaultFlipMem:
			if op != "mem" {
				continue
			}
		default:
			continue
		}
		if s.Rank != -1 && s.Rank != in.rank {
			continue
		}
		if s.Op != "" && s.Op != op {
			continue
		}
		idx := in.seen[i]
		in.seen[i]++
		if s.Prob > 0 {
			if in.rng.Float64() < s.Prob && hit < 0 {
				hit = i
			}
			continue
		}
		if !in.fired[i] && s.Call == idx && hit < 0 {
			hit = i
			in.fired[i] = true
		}
	}
	return hit
}

// ComputeFault is the compute-event injection hook: the ABFT guard
// presents each local GEMM step's output tile ("gemm", n = tile
// elements) and resident operands ("mem", n = combined elements) and
// applies the returned flip itself (the guard knows the buffers'
// logical shapes; the injector only decides whether, where, and which
// bit). Fired flips are recorded in Stats and on the timeline exactly
// like communication faults. Plans without flip specs return on a
// single branch without touching the injector state, so attaching a
// guard cannot perturb an existing chaos plan's decision stream.
func (c *Comm) ComputeFault(op string, n int) (idx, bit int, fire bool) {
	in := c.inj
	if in == nil || !in.flips || n <= 0 {
		return 0, 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	call := in.calls
	in.calls++
	si := in.matchCompute(op)
	if si < 0 {
		return 0, 0, false
	}
	spec := &in.plan.Specs[si]
	rec := Injection{Kind: spec.Kind, Op: op, Call: call, Peer: -1}
	c.stats.addInjection(rec)
	c.obsFault(rec)
	return in.rng.IntN(n), spec.Bit, true
}

// Instant records a named instant event on the rank's timeline (the
// ABFT guard's sdc:detect / sdc:correct / sdc:recompute markers).
// Nil-safe when no recorder is attached.
func (c *Comm) Instant(name, detail string) {
	c.obsInstant(name, detail)
}

// RecordSDC accumulates the ABFT guard's counters into the rank's
// Stats when the guarded execution finishes.
func (c *Comm) RecordSDC(detected, corrected, recomputed int64) {
	c.stats.SDCDetected += detected
	c.stats.SDCCorrected += corrected
	c.stats.SDCRecomputed += recomputed
}

func (s *FaultSpec) delay() time.Duration {
	if s.Delay > 0 {
		return s.Delay
	}
	return defaultFaultDelay
}

// partitionGroup resolves the rank set isolated by a FaultPartition
// spec for a world of the given size.
func (s *FaultSpec) partitionGroup(size int) []int {
	if len(s.Group) > 0 {
		return s.Group
	}
	var g []int
	for r := (size + 1) / 2; r < size; r++ {
		g = append(g, r)
	}
	return g
}

// needsTransport reports whether the plan injects fabric-level loss,
// which the runtime answers by switching on the reliable transport.
func (p *FaultPlan) needsTransport() bool {
	if p == nil {
		return false
	}
	for i := range p.Specs {
		if k := p.Specs[i].Kind; k == FaultDrop || k == FaultPartition {
			return true
		}
	}
	return false
}

// needsDetector reports whether the plan can wedge the run in a way
// only a failure detector resolves (a partition that outlasts every
// retransmit budget).
func (p *FaultPlan) needsDetector() bool {
	if p == nil {
		return false
	}
	for i := range p.Specs {
		if p.Specs[i].Kind == FaultPartition {
			return true
		}
	}
	return false
}

// event is called by the router at every communication event of the
// rank. For send events it returns the list of envelopes to enqueue
// now — usually {env}, more after duplication or a released reorder
// stash, none when the payload was stashed, dropped, or handed to an
// async delayed delivery. It panics with a rank crash when a FaultCrash
// rule fires.
func (c *Comm) event(op string, key boxKey, env envelope, send bool) []envelope {
	in := c.inj
	if in == nil {
		if !send {
			return nil
		}
		return []envelope{env}
	}
	var out []envelope
	if send {
		out = []envelope{env}
	}
	// The lock covers the whole decision (and any injected sleep): a
	// FaultCrash panic still unlocks via the defer, and serializing a
	// straggler's sleeps across the rank's threads models one slow
	// process rather than one slow thread.
	in.mu.Lock()
	defer in.mu.Unlock()
	call := in.calls
	in.calls++
	if in.slow > 0 {
		time.Sleep(in.slow)
	}
	// A stashed reordered message may only wait for the very next send
	// on the same link. Before any other event — including a receive
	// this rank could block on forever — flush it, or the stash turns a
	// benign reordering into a deadlock.
	if in.hasPending && !(send && key == in.pendingKey) {
		c.flushStash()
	}
	si := in.match(op, send)
	if si < 0 {
		return c.releasePending(key, out)
	}
	spec := &in.plan.Specs[si]
	rec := Injection{Kind: spec.Kind, Op: op, Call: call, Peer: -1}
	if send {
		rec.Peer = key.dst
	}
	switch spec.Kind {
	case FaultCrash:
		c.stats.addInjection(rec)
		c.obsFault(rec)
		panic(rankCrash{&RankFailure{Rank: c.worldRank, Op: op, Call: call}})
	case FaultStraggle:
		c.stats.addInjection(rec)
		c.obsFault(rec)
		in.slow = spec.delay()
		c.w.slowNs[c.worldRank].Store(int64(in.slow))
		time.Sleep(in.slow)
	case FaultDelay:
		c.stats.addInjection(rec)
		c.obsFault(rec)
		if send {
			c.deliverAfter(op, key, env, spec.delay())
			out = nil
		} else {
			time.Sleep(spec.delay())
		}
	case FaultCorrupt:
		if send && len(env.data) > 0 {
			c.stats.addInjection(rec)
			c.obsFault(rec)
			i := in.rng.IntN(len(env.data))
			bit := spec.Bit
			if bit >= 64 {
				// Complex payloads ride as [re, im] float64 pairs; bits
				// 64–127 address the imaginary (odd) slot of the pair the
				// draw landed on, so corruption reaches both components.
				if j := i | 1; j < len(env.data) {
					i = j
				}
				bit -= 64
			}
			env.data[i] = flipBit(env.data[i], bit)
		}
	case FaultDuplicate:
		if send {
			c.stats.addInjection(rec)
			c.obsFault(rec)
			// Copy the whole envelope so the duplicate keeps the link
			// sequence and causal stamp: the receiver's dedup window and
			// the causal graph both treat it as the same logical message.
			dup := env
			dup.data = make([]float64, len(env.data))
			copy(dup.data, env.data)
			out = []envelope{env, dup}
		}
	case FaultReorder:
		if send && !in.hasPending {
			c.stats.addInjection(rec)
			c.obsFault(rec)
			in.pending, in.pendingKey, in.pendingOp = env, key, op
			in.hasPending = true
			out = nil
		}
	case FaultDrop:
		if send {
			c.stats.addInjection(rec)
			c.obsFault(rec)
			if env.seq == 0 {
				// Raw fabric: the loss stands — record it, never hide it.
				c.w.noteLost(key.src, op, "injected drop on unreliable fabric")
			}
			// Sequenced: the retransmit loop registered before this hook
			// redelivers the payload; only the first copy vanishes.
			out = nil
		}
	case FaultPartition:
		c.stats.addInjection(rec)
		c.obsFault(rec)
		c.w.activatePartition(spec.partitionGroup(c.w.size), spec.Delay)
	}
	return c.releasePending(key, out)
}

// releasePending appends the reorder stash after the current payloads
// when this is a send event, completing the swap: the newer message
// overtakes the stashed one.
func (c *Comm) releasePending(key boxKey, out []envelope) []envelope {
	in := c.inj
	if in == nil || !in.hasPending || out == nil {
		return out
	}
	// Only swap within the same link: cross-link ordering is
	// unobservable, and flushing into a different link here would
	// misroute the stashed payload.
	if key != in.pendingKey {
		return out
	}
	out = append(out, in.pending)
	in.hasPending = false
	in.pending = envelope{}
	return out
}

// flushStash delivers the stashed reordered message now, falling back
// to an async delivery if its link is momentarily full.
func (c *Comm) flushStash() {
	in := c.inj
	if c.w.put(in.pendingKey, in.pending) != nil {
		c.deliverAfter(in.pendingOp, in.pendingKey, in.pending, 0)
	}
	in.hasPending = false
	in.pending = envelope{}
}

// flush delivers a still-stashed reordered message best-effort when
// the rank finishes. An unsequenced payload that finds its link full
// is lost — and recorded as such; a sequenced one is still covered by
// its retransmit loop.
func (in *injector) flush(w *world) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hasPending {
		return
	}
	if w.put(in.pendingKey, in.pending) != nil && in.pending.seq == 0 {
		w.noteLost(in.pendingKey.src, in.pendingOp, "rank exited with reorder stash against a full link")
	}
	in.hasPending = false
	in.pending = envelope{}
}

// deliverAfter puts env into key's link after d. The goroutine is
// joined at run shutdown, and an abandoned delivery — link still full
// at the run timeout or at shutdown — is recorded as a lost message
// instead of silently vanishing (unless the destination died, which
// makes the payload moot, or the envelope is sequenced and thus
// covered by its retransmit loop).
func (c *Comm) deliverAfter(op string, key boxKey, env envelope, d time.Duration) {
	w, timeout := c.w, c.timeout
	w.netWG.Add(1)
	go func() {
		defer w.netWG.Done()
		select {
		case <-time.After(d):
		case <-w.shutdown:
		}
		if w.partitionBlocked(key.src, key.dst) {
			if env.seq == 0 {
				w.noteLost(key.src, op, "delayed delivery black-holed by partition")
			}
			return
		}
		full := w.put(key, env)
		if full == nil {
			return
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		for full != nil {
			select {
			case <-full:
				full = w.put(key, env)
			case <-w.deadChan(key.dst):
				return
			case <-w.shutdown:
				if env.seq == 0 {
					w.noteLost(key.src, op, "run ended before delayed delivery")
				}
				return
			case <-t.C:
				if env.seq == 0 {
					w.noteLost(key.src, op, "link full past run timeout")
				}
				return
			}
		}
	}()
}

func flipBit(v float64, bit int) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << (uint(bit) & 63)))
}
