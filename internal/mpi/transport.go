package mpi

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// This file is the reliable-delivery transport of the runtime. The raw
// fabric (the per-rank inboxes) never loses a message, so the base
// runtime can treat every enqueue as delivered; FaultDrop and
// FaultPartition break that assumption. When a plan contains either
// kind — or when Options.Reliable is set explicitly — the router switches to
// sequence-numbered delivery: each message on a (comm, src, dst, tag)
// link carries a per-link sequence number, the receiver acknowledges it
// when a receive takes it from the inbox, and the sender retransmits
// unacknowledged payloads on a timeout with exponential backoff and
// jitter. Duplicates (retransmitted copies racing the original, or
// injected FaultDuplicate copies) are suppressed by the receiver's
// sequence window. A bounded retransmit budget keeps a dead or
// permanently partitioned peer from being retried forever: exhaustion surfaces as ErrUnreachable (wrapping
// ErrRankFailed), either directly or — when the heartbeat detector is
// running — by nudging the detector, which owns the kill decision.

// envelope is one routed message: the payload plus its link sequence
// number and causal stamp. seq 0 means unsequenced — the raw fabric
// with the transport off — so existing behavior is untouched unless
// reliability is on. cseq/cep are the (sender, epoch, seq) causal ID
// assigned once in deliver, before the transport registers the
// message, so retransmits and injected duplicates carry the same ID as
// the original; cseq 0 means unstamped (no recorder attached). at is
// the obs-clock time the envelope entered its destination's inbox
// (stamped by put only when a recorder is attached).
type envelope struct {
	seq  uint64
	cseq uint64
	cep  int32
	at   time.Duration
	data []float64
}

// ReliableOptions tunes the ack/retransmit transport. The zero value of
// each field selects its default.
type ReliableOptions struct {
	// RTO is the initial retransmit timeout (default 15ms). Each
	// unacknowledged retransmission doubles it up to MaxRTO, with
	// multiplicative jitter so synchronized senders spread out.
	RTO time.Duration
	// MaxRTO caps the backoff (default 200ms).
	MaxRTO time.Duration
	// Budget bounds the retransmissions of a single message (default
	// 10). A message still unacknowledged after Budget retransmissions
	// declares the peer unreachable.
	Budget int
}

const (
	defaultRTO       = 15 * time.Millisecond
	defaultMaxRTO    = 200 * time.Millisecond
	defaultRetBudget = 10
)

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.RTO <= 0 {
		o.RTO = defaultRTO
	}
	if o.MaxRTO <= 0 {
		o.MaxRTO = defaultMaxRTO
	}
	if o.MaxRTO < o.RTO {
		o.MaxRTO = o.RTO
	}
	if o.Budget <= 0 {
		o.Budget = defaultRetBudget
	}
	return o
}

// pendingKey identifies one in-flight sequenced message.
type pendingKey struct {
	key boxKey
	seq uint64
}

// pendingSend is the sender-side record of an unacknowledged message;
// ack is closed by the receiver's acknowledgment (or by cancellation).
type pendingSend struct {
	ack chan struct{}
}

// recvLink is the receiver-side window of one link: floor is the next
// sequence number to deliver (everything below it has been delivered),
// and buf holds out-of-order arrivals — acknowledged already, so the
// sender stops retransmitting, but parked until their turn. The raw
// fabric is FIFO per link and the algorithms rely on that, so the
// transport must restore program order when retransmission breaks it.
type recvLink struct {
	floor uint64
	buf   map[uint64]envelope
}

// transport holds the reliable-delivery state of one world. All maps
// are guarded by mu; the per-message retransmit loops run as background
// goroutines registered in world.netWG.
type transport struct {
	w   *world
	opt ReliableOptions

	mu      sync.Mutex
	seq     map[boxKey]uint64
	pending map[pendingKey]*pendingSend
	recv    map[boxKey]*recvLink
	rng     *rand.Rand // retransmit jitter; guarded by mu
}

func newTransport(w *world, opt ReliableOptions, seed uint64) *transport {
	return &transport{
		w:       w,
		opt:     opt.withDefaults(),
		seq:     make(map[boxKey]uint64),
		pending: make(map[pendingKey]*pendingSend),
		recv:    make(map[boxKey]*recvLink),
		rng:     rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909)),
	}
}

// register assigns the next sequence number on key's link, records the
// message as pending, and starts its retransmit loop. Called by the
// sender before the fault hook, so a dropped or delayed first copy is
// still covered by retransmission.
func (tr *transport) register(key boxKey, op string, env *envelope) {
	tr.mu.Lock()
	tr.seq[key]++
	env.seq = tr.seq[key]
	ps := &pendingSend{ack: make(chan struct{})}
	tr.pending[pendingKey{key, env.seq}] = ps
	tr.mu.Unlock()
	tr.w.netWG.Add(1)
	go tr.retransmitLoop(key, op, *env, ps)
}

// cancel forgets a pending message without acknowledging it (dead peer,
// shutdown).
func (tr *transport) cancel(key boxKey, seq uint64) {
	tr.mu.Lock()
	delete(tr.pending, pendingKey{key, seq})
	tr.mu.Unlock()
}

// jitter spreads a retransmit timeout over [d/2, d] so that senders
// synchronized by a partition heal do not retransmit in lockstep.
func (tr *transport) jitter(d time.Duration) time.Duration {
	tr.mu.Lock()
	f := tr.rng.Float64()
	tr.mu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// retransmitLoop re-enqueues one sequenced message until it is
// acknowledged, the run shuts down, either endpoint dies, or the
// retransmit budget runs out. Budget exhaustion declares the peer
// unreachable: without a failure detector the sender fences it
// immediately; with one, the detector owns the kill decision (its
// majority rule keeps a minority-side sender from fencing the healthy
// majority), so the loop resets its budget and keeps the payload alive
// for delivery after a heal.
func (tr *transport) retransmitLoop(key boxKey, op string, env envelope, ps *pendingSend) {
	w := tr.w
	defer w.netWG.Done()
	rto := tr.opt.RTO
	attempts := 0
	for {
		select {
		case <-ps.ack:
			return
		case <-w.shutdown:
			tr.cancel(key, env.seq)
			return
		case <-time.After(tr.jitter(rto)):
		}
		if w.isDead(key.src) || w.isDead(key.dst) || w.doneOK(key.dst) {
			tr.cancel(key, env.seq)
			return
		}
		if attempts >= tr.opt.Budget {
			w.addNet(key.src, func(n *NetStats) { n.Unreachable++ })
			if w.det != nil {
				w.netInstant("net:exhausted", fmt.Sprintf("%s seq %d %d->%d: budget %d spent, deferring to detector",
					op, env.seq, key.src, key.dst, tr.opt.Budget))
				attempts = 0
				continue
			}
			cause := fmt.Errorf("mpi: rank %d: no ack from rank %d for %s seq %d after %d retransmissions: %w",
				key.src, key.dst, op, env.seq, tr.opt.Budget, ErrUnreachable)
			tr.cancel(key, env.seq)
			w.fence(key.dst, key.src, cause)
			return
		}
		if !w.partitionBlocked(key.src, key.dst) {
			// A full link means the receiver is lagging, not lossy; the
			// next cycle retries.
			w.put(key, env)
		}
		attempts++
		w.addNetOp(key.src, op, func(n *NetStats, o *opNetDelta) { n.Retransmits++; o.retrans++ })
		w.netInstant("net:retransmit", fmt.Sprintf("%s seq %d %d->%d attempt %d", op, env.seq, key.src, key.dst, attempts))
		if rto *= 2; rto > tr.opt.MaxRTO {
			rto = tr.opt.MaxRTO
		}
	}
}

// admitSeq is the receiver side of the transport: it acknowledges the
// arrival and decides its fate. ok is true exactly when env is the
// next in-order message; a duplicate is suppressed, and an
// out-of-order arrival (its predecessor was dropped and is still in
// retransmission) is parked in the link buffer for nextBuffered to
// release in sequence. With park set even the in-order message is
// parked: the receive that claimed it was already satisfied from the
// buffer, so the envelope belongs to the link's next receive.
// Unsequenced envelopes bypass the window entirely. op names the
// receiving operation for the duplicate counter.
func (w *world) admitSeq(key boxKey, env envelope, op string, park bool) (envelope, bool) {
	tr := w.tr
	if tr == nil || env.seq == 0 {
		return env, true
	}
	tr.mu.Lock()
	lk := tr.recv[key]
	if lk == nil {
		lk = &recvLink{floor: 1, buf: make(map[uint64]envelope)}
		tr.recv[key] = lk
	}
	dup := env.seq < lk.floor
	if !dup {
		_, dup = lk.buf[env.seq]
	}
	// Ack duplicates too: the duplicate often exists because the first
	// ack raced the retransmit timer or was cut off by a partition, and
	// the sender needs the re-ack to stop.
	tr.ackLocked(key, env.seq)
	deliver := false
	switch {
	case dup:
	case env.seq == lk.floor && !park:
		lk.floor++
		deliver = true
	default:
		lk.buf[env.seq] = env
	}
	tr.mu.Unlock()
	if dup {
		w.addNetOp(key.dst, op, func(n *NetStats, o *opNetDelta) { n.DupDrops++; o.dup++ })
		w.netInstant("net:dup-drop", fmt.Sprintf("%s seq %d %d->%d", op, env.seq, key.src, key.dst))
	}
	if deliver {
		return env, true
	}
	return envelope{}, false
}

// ack acknowledges a sequenced envelope the moment a receive takes it
// from the inbox — a posted receive filled by put, or a queued envelope
// popped by take — so a nonblocking receive that is Waited long after
// its message arrived does not keep the sender retransmitting (and
// eventually fencing a healthy peer). admitSeq acks again at Wait,
// which covers an ack the partition blocked here; ordering and
// duplicate suppression stay with admitSeq.
func (w *world) ack(key boxKey, seq uint64) {
	tr := w.tr
	if tr == nil || seq == 0 {
		return
	}
	tr.mu.Lock()
	tr.ackLocked(key, seq)
	tr.mu.Unlock()
}

// ackLocked releases the sender's pending record of (key, seq). The ack
// is subject to the partition (reverse direction): a blocked ack leaves
// the message pending, and the sender keeps retransmitting until the
// heal lets a re-ack through. Called with tr.mu held.
func (tr *transport) ackLocked(key boxKey, seq uint64) {
	if tr.w.partitionBlocked(key.dst, key.src) {
		return
	}
	if ps := tr.pending[pendingKey{key, seq}]; ps != nil {
		close(ps.ack)
		delete(tr.pending, pendingKey{key, seq})
	}
}

// nextBuffered releases the next in-order message if a previous arrival
// parked it (it raced ahead of a retransmitted predecessor). Receivers
// consult it before blocking on their inbox.
func (w *world) nextBuffered(key boxKey) (envelope, bool) {
	tr := w.tr
	if tr == nil {
		return envelope{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	lk := tr.recv[key]
	if lk == nil {
		return envelope{}, false
	}
	env, ok := lk.buf[lk.floor]
	if !ok {
		return envelope{}, false
	}
	delete(lk.buf, lk.floor)
	lk.floor++
	return env, true
}

// partitionState is one active network partition: ranks inside group
// cannot exchange messages with ranks outside it until the partition
// heals at until (zero = permanent).
type partitionState struct {
	group map[int]bool
	until time.Time
}

// activatePartition installs a partition between group and its
// complement, healing after d (0 = permanent).
func (w *world) activatePartition(group []int, d time.Duration) {
	gm := make(map[int]bool, len(group))
	for _, r := range group {
		gm[r] = true
	}
	ps := partitionState{group: gm}
	if d > 0 {
		ps.until = time.Now().Add(d)
	}
	w.partMu.Lock()
	w.parts = append(w.parts, ps)
	w.partMu.Unlock()
	w.partOn.Store(1)
}

// partitionBlocked reports whether an active partition separates world
// ranks a and b right now. The fast path is one atomic load.
func (w *world) partitionBlocked(a, b int) bool {
	if w.partOn.Load() == 0 {
		return false
	}
	now := time.Now()
	w.partMu.RLock()
	defer w.partMu.RUnlock()
	for i := range w.parts {
		p := &w.parts[i]
		if !p.until.IsZero() && now.After(p.until) {
			continue
		}
		if p.group[a] != p.group[b] {
			return true
		}
	}
	return false
}

// opNetDelta accumulates the per-op transport counters that fold into
// Stats.PerOp when the run finishes.
type opNetDelta struct {
	retrans int64
	dup     int64
}

// addNet mutates rank's NetStats accumulator. Transport and detector
// goroutines run concurrently with the rank's own single-writer Stats,
// so their counters live in world-level accumulators under netMu and
// are folded into Stats only after every goroutine has been joined.
func (w *world) addNet(rank int, f func(*NetStats)) {
	w.netMu.Lock()
	f(&w.net[rank])
	w.netMu.Unlock()
}

// addNetOp is addNet plus a per-op delta destined for Stats.PerOp.
func (w *world) addNetOp(rank int, op string, f func(*NetStats, *opNetDelta)) {
	w.netMu.Lock()
	d := w.opNet[rank][op]
	if d == nil {
		d = &opNetDelta{}
		w.opNet[rank][op] = d
	}
	f(&w.net[rank], d)
	w.netMu.Unlock()
}

// noteLost records a message the raw fabric abandoned with no delivery
// (satellite of the reliability work: losses are never silent — they
// are counted against the sending rank and traced).
func (w *world) noteLost(src int, op, why string) {
	w.addNet(src, func(n *NetStats) { n.Lost++ })
	w.netInstant("net:lost", fmt.Sprintf("%s from rank %d: %s", op, src, why))
}

// netInstant records an instant event from the transport or detector.
// The obs recorder's shards are single-writer per rank, and these
// events originate on goroutines running concurrently with the rank
// goroutines — so they all land on a dedicated "fabric" lane (rank
// index = world size) serialized by obsMu.
func (w *world) netInstant(name, detail string) {
	if w.opt.Obs == nil {
		return
	}
	w.obsMu.Lock()
	w.opt.Obs.Instant(w.size, name, detail)
	w.obsMu.Unlock()
}

// foldNetStats merges the transport/detector accumulators into the
// per-rank Stats. Called after every rank goroutine and every
// transport/detector goroutine has been joined, so the single-writer
// Stats invariant holds.
func (w *world) foldNetStats() {
	for r := range w.stats {
		s := &w.stats[r]
		s.Net = w.net[r]
		for op, d := range w.opNet[r] {
			if s.PerOp == nil {
				s.PerOp = make(map[string]OpStats)
			}
			e := s.PerOp[op]
			e.Retrans += d.retrans
			e.DupDrops += d.dup
			s.PerOp[op] = e
		}
	}
}
