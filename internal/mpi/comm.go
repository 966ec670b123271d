package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Undefined is the color passed to Split by ranks that should not be
// members of any resulting communicator.
const Undefined = -1

// maxUserTag is the upper bound (exclusive) for user-supplied message
// tags; tags at or above it are reserved for collectives.
const maxUserTag = 1 << 20

// collTagWindow is the number of distinct collective tags a
// communicator cycles through. Blocking collectives within one
// communicator complete in order, so reuse this far apart is safe; the
// only way to reach back a full window is to leave nonblocking
// collectives un-Waited, and a reservation that would reuse a tag an
// in-flight request still holds aborts with ErrTagAlias.
const collTagWindow = 1 << 12

// ErrTagAlias reports runtime misuse: more than collTagWindow
// collective tags reserved on one communicator while the oldest
// nonblocking collective holding one is still in flight.
var ErrTagAlias = errors.New("mpi: collective tag window exhausted by in-flight requests")

// revocation is the shared revoked-flag of one communicator epoch:
// the world communicator and every Shrink result get a fresh one, and
// Split-derived communicators share their parent's, so revoking any
// communicator of an epoch wakes blocked operations across the whole
// epoch (ULFM MPI_Comm_revoke semantics).
type revocation struct {
	once sync.Once
	ch   chan struct{}
}

func (rv *revocation) revoke() { rv.once.Do(func() { close(rv.ch) }) }

func (rv *revocation) revoked() bool {
	select {
	case <-rv.ch:
		return true
	default:
		return false
	}
}

// Comm is a communicator: an ordered group of ranks that can exchange
// point-to-point messages and perform collectives. Each rank holds its
// own Comm value; Comm methods are called by that rank's goroutine
// only.
type Comm struct {
	w          *world
	ctx        string // communicator identity, equal across members
	rank       int    // my rank within this communicator
	ranks      []int  // world rank of each member
	stats      *Stats
	timeout    time.Duration
	worldRank  int
	collSeq    int // per-rank collective sequence counter
	splitSeq   int // per-rank split counter
	agreeSeq   int // per-rank agreement counter
	shrinkSeq  int // per-rank shrink counter
	replaceSeq int // per-rank replace counter
	inj        *injector
	rv         *revocation
	obs        *obs.Recorder // nil when observability is off
	epoch      int           // causal epoch: 0 for the world, bumped by Shrink
	async      bool          // clone driven by a background goroutine, not the rank owner
	// collHeld lists this rank's nonblocking collectives on the
	// communicator in initiation order; the oldest unreleased one pins
	// the start of the usable tag window.
	collHeld []*collPending
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank returns the caller's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.worldRank }

// Stats returns the caller's statistics record (shared with the final
// Report, indexed by world rank).
func (c *Comm) Stats() *Stats { return c.stats }

func (c *Comm) checkPeer(peer int, op string) {
	if peer < 0 || peer >= len(c.ranks) {
		c.w.fail(fmt.Errorf("mpi: rank %d (%s): %s peer %d out of range [0,%d)",
			c.rank, c.ctx, op, peer, len(c.ranks)))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= maxUserTag {
		c.w.fail(fmt.Errorf("mpi: rank %d: user tag %d out of range [0,%d)", c.rank, tag, maxUserTag))
	}
}

// abort unwinds the calling rank with a recoverable communication
// failure; a self-healing executor catches it with RecoverComm, and
// otherwise it surfaces from Run as the rank's error.
func (c *Comm) abort(err error) {
	panic(commAbort{err})
}

// opError builds the diagnostic for a failed blocking operation. It
// names the communicator context, the pending operation, the direction,
// and the peer's communicator and world ranks, so that a chaos failure
// deep inside a split communicator can be traced back to a concrete
// rank and collective.
func (c *Comm) opError(op, dir string, peer int, sentinel error) error {
	var why string
	switch sentinel {
	case ErrTimeout:
		why = fmt.Sprintf("timed out after %v (deadlock or mismatched schedule)", c.timeout)
	case ErrRevoked:
		why = "communicator revoked"
	default:
		why = "peer rank failed"
		if cause := c.w.causeOf(c.ranks[peer]); cause != nil {
			why = fmt.Sprintf("peer rank failed (%v)", cause)
		}
	}
	return fmt.Errorf("mpi: rank %d (comm %q): pending %s %s, peer %d (world rank %d): %s: %w",
		c.rank, c.ctx, op, dir, peer, c.ranks[peer], why, sentinel)
}

// peerSentinel picks the typed sentinel for an abort caused by the
// given dead world rank: ErrUnreachable when the peer was fenced by the
// failure detector or retransmit budget, ErrRankFailed otherwise. Both
// unwrap to ErrRankFailed, so recovery treats them alike.
func (w *world) peerSentinel(worldRank int) error {
	if cause := w.causeOf(worldRank); cause != nil && errors.Is(cause, ErrUnreachable) {
		return ErrUnreachable
	}
	return ErrRankFailed
}

// deliver routes one outgoing message: the reliable transport (when
// on) sequences it and arms its retransmit loop, the fault hook may
// corrupt, duplicate, stash, delay, drop, or crash on it; whatever
// envelopes remain are put into the destination's inbox. The caller
// must own data.
func (c *Comm) deliver(op string, dst, tag int, data []float64) {
	c.checkSelfAlive()
	key := boxKey{ctx: c.ctx, src: c.worldRank, dst: c.ranks[dst], tag: tag}
	env := envelope{data: data}
	// Causal stamp at the fault-hook boundary: the ID is assigned
	// before the transport registers the envelope, so retransmitted,
	// duplicated, and delayed copies all carry the original's identity
	// and the logical message contributes exactly one send edge.
	if c.obs != nil {
		env.cseq = c.w.nextCausalSeq(c.worldRank)
		env.cep = int32(c.epoch)
	}
	if tr := c.w.tr; tr != nil {
		// Register before the fault hook: a first copy lost to a drop,
		// stash, or crash is then still covered by retransmission.
		tr.register(key, op, &env)
	}
	if c.inj == nil {
		c.enqueue(op, dst, key, env)
	} else {
		for _, e := range c.event(op, key, env, true) {
			c.enqueue(op, dst, key, e)
		}
	}
	// The send edge is recorded after the fault hook and the enqueue,
	// so its timestamp reflects when the message actually entered the
	// fabric (a straggler's injected sleep delays it, which is what the
	// blame attribution measures). A crash unwinds before this point
	// and leaves no dangling edge.
	c.obsSendEdge(op, key.dst, env, int64(8*len(data)))
	c.stats.BytesSent += int64(8 * len(data))
	c.stats.MsgsSent++
	c.stats.addOp(op, int64(8*len(data)))
}

// enqueue puts env into the destination's inbox, blocking while the
// link is at ChanCap and failing fast when the destination rank is
// dead or the epoch is revoked. A message crossing an active partition
// is black-holed: the sender does not block (the fabric accepted it),
// the payload just never arrives — until a retransmit loop redelivers
// it after the heal.
func (c *Comm) enqueue(op string, dst int, key boxKey, env envelope) {
	if c.w.isDead(key.dst) {
		c.abort(c.opError(op, "send", dst, c.w.peerSentinel(key.dst)))
	}
	if c.rv.revoked() {
		c.abort(c.opError(op, "send", dst, ErrRevoked))
	}
	if c.w.partitionBlocked(key.src, key.dst) {
		if env.seq == 0 {
			c.w.noteLost(key.src, op, "black-holed by partition")
		}
		return
	}
	full := c.w.put(key, env)
	if full == nil {
		return
	}
	t := getTimer(c.timeout)
	defer putTimer(t)
	for full != nil {
		select {
		case <-full:
		case <-c.w.deadChan(key.dst):
			c.abort(c.opError(op, "send", dst, c.w.peerSentinel(key.dst)))
		case <-c.rv.ch:
			c.abort(c.opError(op, "send", dst, ErrRevoked))
		case <-t.C:
			c.abort(c.opError(op, "send", dst, ErrTimeout))
		}
		full = c.w.put(key, env)
	}
}

// receive blocks until a message from src arrives, failing fast with
// ErrRankFailed when src has died (after draining anything it sent
// before dying) or ErrRevoked when the epoch was revoked. Sequenced
// duplicates — retransmitted copies racing their original, or injected
// FaultDuplicate copies — are acknowledged and suppressed here, and
// arrivals that overtook a retransmitted predecessor are reordered, so
// the caller sees each message exactly once, in send order.
func (c *Comm) receive(op string, src, tag int) []float64 {
	c.checkSelfAlive()
	cl := claim{key: boxKey{ctx: c.ctx, src: c.ranks[src], dst: c.worldRank, tag: tag}}
	c.event(op, cl.key, envelope{}, false)
	e := c.complete(op, src, &cl)
	c.obsRecvEdge(op, cl.key.src, e)
	c.countRecv(op, e)
	return e.data
}

// countRecv adds one received message to the rank's statistics.
func (c *Comm) countRecv(op string, e envelope) {
	c.stats.BytesRecv += int64(8 * len(e.data))
	c.stats.MsgsRecv++
	c.stats.addOpRecv(op, int64(8*len(e.data)))
}

// complete finishes a receive on cl's link: it releases a message the
// transport parked in sequence, or awaits the next envelope — taking
// cl's existing claim first — and lets the transport admit it. A claim
// left over when the parked message wins is withdrawn; if a sender
// already filled it, its envelope is parked for the link's next
// receive rather than lost.
func (c *Comm) complete(op string, src int, cl *claim) envelope {
	for {
		if e, ok := c.w.nextBuffered(cl.key); ok {
			c.w.withdraw(cl)
			if cl.have {
				c.w.admitSeq(cl.key, cl.pop(), op, true)
			}
			return e
		}
		if e, ok := c.w.admitSeq(cl.key, c.await(op, src, cl), op, false); ok {
			return e
		}
	}
}

// await returns the next envelope on cl's link, taking it from the
// queue or posting cl and sleeping until a sender fills it, the sender
// dies, the epoch is revoked, or the run timeout expires. A claim a
// sender filled wins over every failure arm: the sender may have
// enqueued the message before dying.
func (c *Comm) await(op string, src int, cl *claim) envelope {
	if !cl.have && cl.slot == nil {
		c.w.take(cl)
	}
	// Fast path: a queued or already matched envelope is taken without
	// arming a timeout.
	if cl.ready() {
		return cl.pop()
	}
	t := getTimer(c.timeout)
	defer putTimer(t)
	var sentinel error
	select {
	case env := <-cl.slot:
		slotPool.Put(cl.slot)
		cl.slot = nil
		return env
	case <-c.w.deadChan(cl.key.src):
		sentinel = c.w.peerSentinel(cl.key.src)
	case <-c.rv.ch:
		sentinel = ErrRevoked
	case <-t.C:
		sentinel = ErrTimeout
	}
	if c.w.withdraw(cl); cl.have {
		return cl.pop()
	}
	c.abort(c.opError(op, "recv", src, sentinel))
	panic("unreachable: abort always panics")
}

// Send sends a copy of data to dst with the given tag. It normally
// completes immediately (eager buffering) and blocks only when the
// destination queue is full.
func (c *Comm) Send(dst, tag int, data []float64) {
	defer c.commEnd(c.commBegin("p2p", 1))
	c.checkPeer(dst, "Send")
	c.checkTag(tag)
	c.send(dst, tag, data)
}

func (c *Comm) send(dst, tag int, data []float64) {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.sendOwned(dst, tag, cp)
}

// sendOwned enqueues data without copying; the caller must not touch
// data afterwards.
func (c *Comm) sendOwned(dst, tag int, data []float64) {
	c.deliver("p2p", dst, tag, data)
}

// Recv receives a message from src with the given tag, returning the
// payload. It blocks until the message arrives or the run times out.
func (c *Comm) Recv(src, tag int) []float64 {
	defer c.commEnd(c.commBegin("p2p", 1))
	c.checkPeer(src, "Recv")
	c.checkTag(tag)
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) []float64 {
	return c.receive("p2p", src, tag)
}

// RecvInto receives from src/tag into buf, which must have exactly the
// length of the incoming message.
func (c *Comm) RecvInto(src, tag int, buf []float64) {
	data := c.Recv(src, tag)
	if len(data) != len(buf) {
		c.w.fail(fmt.Errorf("mpi: rank %d: RecvInto buffer length %d != message length %d",
			c.rank, len(buf), len(data)))
	}
	copy(buf, data)
}

// Sendrecv sends sendData to dst and receives a message from src in a
// deadlock-free manner (the send is eager). Both use the same tag.
func (c *Comm) Sendrecv(dst, src, tag int, sendData []float64) []float64 {
	defer c.commEnd(c.commBegin("p2p", 2))
	c.checkPeer(dst, "Sendrecv")
	c.checkPeer(src, "Sendrecv")
	c.checkTag(tag)
	c.send(dst, tag, sendData)
	return c.recv(src, tag)
}

// enterColl records a collective call and gives the fault layer an
// injection point at the collective boundary itself, so a crash or
// straggle can fire on entry even for collectives whose first action
// is a receive.
func (c *Comm) enterColl(op string) {
	c.stats.addCall(op)
	c.event(op, boxKey{}, envelope{}, false)
}

// nextCollTag reserves the tag used by the next collective. All
// members call collectives in the same order, so the sequence numbers
// agree across ranks.
func (c *Comm) nextCollTag() int {
	return maxUserTag + c.reserveCollTags(1)%collTagWindow
}

// reserveCollTags advances the collective sequence by n and returns the
// first reserved sequence number. Tags repeat every collTagWindow
// sequence numbers, so a reservation ending more than a window past the
// oldest sequence an in-flight nonblocking collective holds would give
// two live collectives the same tag: that is a misuse abort.
func (c *Comm) reserveCollTags(n int) int {
	c.pruneCollHeld()
	if len(c.collHeld) > 0 {
		if oldest := c.collHeld[0].cseq; c.collSeq+n-oldest > collTagWindow {
			c.w.fail(fmt.Errorf("mpi: rank %d (comm %q): collective #%d would reuse the tag of in-flight %s #%d (Wait it first): %w",
				c.rank, c.ctx, c.collSeq+n-1, c.collHeld[0].op, oldest, ErrTagAlias))
		}
	}
	seq := c.collSeq
	c.collSeq += n
	return seq
}

// pruneCollHeld drops the requests that no longer hold their tags
// from the head of collHeld; the window is measured from the oldest
// request still holding.
func (c *Comm) pruneCollHeld() {
	for len(c.collHeld) > 0 && !c.collHeld[0].holdsTags() {
		c.collHeld[0] = nil
		c.collHeld = c.collHeld[1:]
	}
}

// csend and crecv are the collective-internal message primitives; they
// account traffic to the named collective operation.
func (c *Comm) csend(dst, tag int, data []float64, op string) {
	cp := make([]float64, len(data))
	copy(cp, data)
	c.deliver(op, dst, tag, cp)
}

func (c *Comm) crecv(src, tag int, op string) []float64 {
	return c.receive(op, src, tag)
}

// Split partitions the communicator: ranks passing the same color form
// a new communicator, ordered by (key, parent rank). Ranks passing
// Undefined receive nil. Split is collective over c.
func (c *Comm) Split(color, key int) *Comm {
	if color < 0 && color != Undefined {
		c.w.fail(fmt.Errorf("mpi: rank %d: negative split color %d", c.rank, color))
	}
	// Allgather (color, key) pairs so each rank can deterministically
	// compute every subgroup.
	pairs := c.Allgather([]float64{float64(color), float64(key)})
	c.splitSeq++

	if color == Undefined {
		return nil
	}
	type member struct{ key, parentRank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		col := int(pairs[2*r])
		if col == color {
			members = append(members, member{key: int(pairs[2*r+1]), parentRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	newRanks := make([]int, len(members))
	myNew := -1
	for i, mb := range members {
		newRanks[i] = c.ranks[mb.parentRank]
		if mb.parentRank == c.rank {
			myNew = i
		}
	}
	return &Comm{
		w:         c.w,
		ctx:       fmt.Sprintf("%s/%d.%d", c.ctx, c.splitSeq, color),
		rank:      myNew,
		ranks:     newRanks,
		stats:     c.stats,
		timeout:   c.timeout,
		worldRank: c.worldRank,
		inj:       c.inj,
		rv:        c.rv, // same epoch: a revoke reaches split comms too
		obs:       c.obs,
		epoch:     c.epoch,
		async:     c.async,
	}
}

// Revoke marks the communicator's epoch as revoked: every blocked or
// future operation on this communicator and any communicator split
// from it aborts with ErrRevoked (ULFM MPI_Comm_revoke). A rank that
// observes a failure revokes the epoch so that peers blocked on
// third-party ranks do not have to wait out the timeout before joining
// recovery.
func (c *Comm) Revoke() {
	if c.obs != nil {
		c.obsInstant("recover:revoke", c.ctx)
	}
	c.rv.revoke()
}

// revocationFor returns the shared revocation of a shrink epoch,
// creating it on first use. Every survivor of a Shrink derives the
// same epoch ctx, so they all resolve to the same instance.
func (w *world) revocationFor(ctx string) *revocation {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	rv := w.rvs[ctx]
	if rv == nil {
		rv = &revocation{ch: make(chan struct{})}
		w.rvs[ctx] = rv
	}
	return rv
}

// agreeState is one in-progress agreement rendezvous, keyed by
// (communicator ctx, agreement sequence number) in world.agrees.
type agreeState struct {
	flags map[int]bool // arrived world ranks and their flags
	res   *agreeResult
}

type agreeResult struct {
	allOK     bool
	survivors []int // live arrived members, in communicator order
}

// Agree is a fault-tolerant agreement over the communicator's live
// members (ULFM MPI_Comm_agree analogue): it returns the logical AND
// of the flags contributed by the members that are still alive,
// together with their world ranks in communicator order. Dead members
// are excluded and force the result to false, so a true result
// guarantees that every member is alive and contributed true. Unlike
// the regular collectives, Agree completes even when members have
// died, making it the safe rendezvous point after a failed
// communication phase. All live members must call Agree the same
// number of times on the same communicator.
func (c *Comm) Agree(ok bool) (bool, []int) {
	c.checkSelfAlive()
	key := fmt.Sprintf("%s#a%d", c.ctx, c.agreeSeq)
	c.agreeSeq++
	res := c.w.agree(c, key, ok)
	if res == nil {
		c.abort(c.opError("agree", "rendezvous", c.rank, ErrTimeout))
	}
	if c.obs != nil {
		c.obsInstant("recover:agree", fmt.Sprintf("ok=%v survivors=%d", res.allOK, len(res.survivors)))
	}
	return res.allOK, append([]int(nil), res.survivors...)
}

// agree runs the shared-state rendezvous for one Agree call: the last
// arriving live member computes the result once, and everyone returns
// the same snapshot. Returns nil on timeout.
func (w *world) agree(c *Comm, key string, ok bool) *agreeResult {
	deadline := time.Now().Add(c.timeout)
	timer := time.AfterFunc(c.timeout, func() {
		w.ftMu.Lock()
		w.ftCond.Broadcast()
		w.ftMu.Unlock()
	})
	defer timer.Stop()

	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	st := w.agrees[key]
	if st == nil {
		st = &agreeState{flags: make(map[int]bool)}
		w.agrees[key] = st
	}
	st.flags[c.worldRank] = ok
	w.ftCond.Broadcast()
	for {
		if st.res == nil {
			complete, allOK := true, true
			var survivors []int
			for _, r := range c.ranks {
				// A parked rank (fenced, waiting in the lobby for
				// readmission) is excluded exactly like a dead one: it
				// will never arrive at this epoch's rendezvous, and its
				// absence forces the result to false.
				if w.deadCause[r] != nil || w.parkedLocked(r) {
					allOK = false
					continue
				}
				flag, arrived := st.flags[r]
				if !arrived {
					complete = false
					break
				}
				if !flag {
					allOK = false
				}
				survivors = append(survivors, r)
			}
			if complete {
				st.res = &agreeResult{allOK: allOK, survivors: survivors}
				w.ftCond.Broadcast()
			}
		}
		if st.res != nil {
			return st.res
		}
		if time.Now().After(deadline) {
			return nil
		}
		w.ftCond.Wait()
	}
}

// Shrink builds a new communicator from the surviving members (ULFM
// MPI_Comm_shrink analogue) and absolves the injected crashes of the
// dead ones, so a successfully recovered run is not reported as
// failed. The result is a fresh epoch: it has a clean revocation flag
// and a new message context, so stale traffic from the failed epoch
// cannot leak into it. All surviving members must call Shrink
// together; it is itself fault-tolerant (a member dying during the
// shrink is simply excluded).
func (c *Comm) Shrink() *Comm {
	c.checkSelfAlive()
	key := fmt.Sprintf("%s#s%d", c.ctx, c.shrinkSeq)
	c.shrinkSeq++
	res := c.w.agree(c, key, true)
	if res == nil {
		c.abort(c.opError("shrink", "rendezvous", c.rank, ErrTimeout))
	}
	c.w.absolveDead(c.ranks)
	if c.obs != nil {
		c.obsInstant("recover:shrink", fmt.Sprintf("%d -> %d ranks", len(c.ranks), len(res.survivors)))
	}
	myNew := -1
	for i, r := range res.survivors {
		if r == c.worldRank {
			myNew = i
		}
	}
	if myNew < 0 {
		// Fenced between the agreement and here: the survivors have
		// excluded this rank, so it must leave the run.
		panic(rankFenced{})
	}
	ctx := fmt.Sprintf("%s!%d", c.ctx, c.shrinkSeq)
	return &Comm{
		w:         c.w,
		ctx:       ctx,
		rank:      myNew,
		ranks:     res.survivors,
		stats:     c.stats,
		timeout:   c.timeout,
		worldRank: c.worldRank,
		inj:       c.inj,
		obs:       c.obs,
		epoch:     c.epoch + 1, // fresh causal epoch for the shrunken group
		// The epoch's revocation must be the SAME instance on every
		// survivor — a revoke only wakes peers if they select on the
		// same channel — so it is registered in the world under the
		// epoch's ctx, which all survivors compute identically.
		rv: c.w.revocationFor(ctx),
	}
}

// RecordAlloc registers sz bytes of live matrix buffers; the runtime
// tracks the per-rank peak for the paper's memory-usage comparisons
// (Table I).
func (c *Comm) RecordAlloc(sz int64) {
	c.stats.CurAlloc += sz
	if c.stats.CurAlloc > c.stats.PeakAlloc {
		c.stats.PeakAlloc = c.stats.CurAlloc
	}
}

// ReleaseAlloc unregisters sz bytes previously passed to RecordAlloc.
func (c *Comm) ReleaseAlloc(sz int64) {
	c.stats.CurAlloc -= sz
}
