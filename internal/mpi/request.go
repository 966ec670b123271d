package mpi

import (
	"fmt"
	"time"
)

// Request represents a nonblocking operation in progress. Wait must be
// called exactly once; it returns the received payload for receive
// requests and nil for send requests.
//
// Nonblocking receives let an algorithm post the receive for the next
// block before computing on the current one — the message-passing form
// of the dual-buffer overlap CA3DMM uses in its Cannon stage.
type Request struct {
	c      *Comm
	isRecv bool
	done   bool
	// receive plumbing: the claim posted in the destination's inbox at
	// Irecv, completed on the owner's goroutine at Wait.
	cl  claim
	src int
	// overlap-window bookkeeping: the obs-clock reading at initiation,
	// recorded at Wait as the span during which the operation could
	// proceed behind the rank's other work.
	initObs time.Duration
	hasInit bool
	// coll is non-nil for nonblocking collectives (see icoll.go).
	coll *collPending
}

// Isend starts a nonblocking send. In this runtime sends are eager
// (the payload is copied and enqueued immediately), so the request
// completes at once; Wait only exists for symmetry with MPI code.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	c.Send(dst, tag, data)
	return &Request{c: c}
}

// Irecv posts a nonblocking receive from src with the given tag and
// returns at once: a message already queued on the link is claimed
// now, otherwise the receive waits in the inbox for the sender to fill
// it. No goroutine runs on the request's behalf; call Wait to obtain
// the payload.
func (c *Comm) Irecv(src, tag int) *Request {
	c.checkSelfAlive()
	c.checkPeer(src, "Irecv")
	c.checkTag(tag)
	c.event("p2p", boxKey{}, envelope{}, false)
	r := &Request{c: c, isRecv: true, src: src}
	if c.obs != nil {
		r.initObs = c.obs.Since()
		r.hasInit = true
	}
	r.cl.key = boxKey{ctx: c.ctx, src: c.ranks[src], dst: c.worldRank, tag: tag}
	c.w.take(&r.cl)
	return r
}

// recordOverlap records the request's overlap window — initiation to
// Wait entry — on the owner's timeline. The window is the time the
// operation had available to complete behind the rank's other work;
// whatever remained is the exposed comm span Wait records separately.
func (r *Request) recordOverlap(op string) {
	if !r.hasInit || r.c.obs == nil {
		return
	}
	r.c.obs.OverlapSpan(r.c.worldRank, op, r.initObs)
}

// Wait completes the request. For receives it returns the payload; a
// timed-out receive or a failed sender aborts like a blocking Recv
// would (catchable via RecoverComm).
func (r *Request) Wait() []float64 {
	if r.done {
		r.c.w.fail(fmt.Errorf("mpi: rank %d: Wait called twice on the same request", r.c.rank))
	}
	r.done = true
	if r.coll != nil {
		return r.waitColl()
	}
	if !r.isRecv {
		return nil
	}
	r.recordOverlap("p2p")
	c := r.c
	defer c.commEnd(c.commBegin("p2p", 1))
	e := c.complete("p2p", r.src, &r.cl)
	// The edge carries the time the message became available to this
	// receive: its arrival, or the posting if it was already queued.
	c.obsRecvEdgeAt("p2p", r.cl.key.src, e, max(e.at, r.initObs))
	c.countRecv("p2p", e)
	return e.data
}

// waitColl joins an async collective body: fold its private statistics
// into the owner (the channel receive orders the body's writes before
// the fold), then replay on the owning goroutine whatever unwound it —
// a comm abort, an injected crash, a misuse abort — so failure handling
// is indistinguishable from the blocking call. The deferred comm span
// runs after the fold, so it carries the collective's byte deltas, and
// it records even on the abort path (the chaos-trace contract).
func (r *Request) waitColl() []float64 {
	cp := r.coll
	r.recordOverlap(cp.op)
	t := r.c.commBegin(cp.op, cp.peers)
	if t.ok {
		// Stamp the span with the collective's initiation-time identity:
		// by Wait the owner's sequence counter has moved past the tags
		// reserved for this body (and possibly further collectives), but
		// skew alignment needs the sequence the members agreed on.
		t.ctx, t.cseq = cp.ctx, cp.cseq
	}
	defer r.c.commEnd(t)
	res := <-cp.res
	cp.waited = true
	r.c.pruneCollHeld()
	if res.stats != nil {
		r.c.stats.fold(res.stats)
	}
	if res.panicked != nil {
		panic(res.panicked)
	}
	return res.data
}

// Cancel abandons a request the caller will never Wait on (e.g. the
// sibling of a prefetch whose partner already aborted). A receive still
// posted is withdrawn from the inbox; a message already matched to it
// is acknowledged to the transport and discarded. A nonblocking
// collective's body keeps running — it is woken by the next revocation
// at the latest and joined before Run returns — and holds its
// collective tags until it finishes; its result and private statistics
// are discarded. Cancel after Wait is a no-op.
func (r *Request) Cancel() {
	if r.done {
		return
	}
	r.done = true
	if r.coll != nil {
		// The body still uses its tags: they stay reserved until it
		// finishes (see collPending.holdsTags).
		r.coll.cancelled = true
		return
	}
	if r.isRecv {
		r.c.w.withdraw(&r.cl)
		if r.cl.have {
			r.c.w.admitSeq(r.cl.key, r.cl.pop(), "p2p", false)
		}
	}
}

// WaitAll completes a set of requests in order, returning the payloads
// of the receive requests (nil entries for sends).
func WaitAll(reqs ...*Request) [][]float64 {
	out := make([][]float64, len(reqs))
	for i, r := range reqs {
		out[i] = r.Wait()
	}
	return out
}
