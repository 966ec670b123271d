package mpi

// This file extends the nonblocking Request machinery from
// point-to-point receives to collectives. An I-collective snapshots the
// communicator, reserves the operation's collective tags on the caller,
// and runs the ordinary blocking algorithm on a background goroutine
// against a private Stats shard; Wait joins the result, folds the
// private counters back into the rank's Stats (keeping them
// single-writer), records the overlap window on the rank's timeline,
// and replays whatever failure unwound the body. Because the body IS
// the unchanged blocking collective, the reliable transport, fault
// injection, partitions, and revocation apply to the in-flight
// operation exactly as they do on the blocking path.
//
// Tag discipline: collective tags are sequence numbers that every
// member advances in the same order. Reserving the body's tags on the
// owner *at initiation* — before the body runs — keeps the sequence
// aligned across ranks even when the owner issues further collectives
// on the same communicator while this one is in flight, provided all
// members initiate their nonblocking collectives in the same order
// (the same contract blocking collectives already impose).

// collPending carries an async collective's identity and result slot.
// ctx/cseq snapshot the communicator identity and collective sequence
// at initiation (before the owner reserves the body's tags), so the
// span Wait records aligns with the same collective on other ranks —
// whether they ran it blocking or nonblocking.
type collPending struct {
	op    string
	ctx   string
	cseq  int
	peers int
	res   chan collResult
	// waited and cancelled record how the owner let go of the request
	// (see holdsTags).
	waited, cancelled bool
}

// holdsTags reports whether the request's body may still use its
// collective tags: until Wait joins it or, after Cancel, until the body
// has finished (its result is buffered in res, which nobody reads after
// Cancel).
func (cp *collPending) holdsTags() bool {
	return !cp.waited && !(cp.cancelled && len(cp.res) > 0)
}

// collResult is the outcome of an async collective body.
type collResult struct {
	data     []float64
	stats    *Stats
	panicked any // non-nil: the unwind to replay on the owner at Wait
}

// iStart launches body on a clone of c and returns its Request. tags is
// the number of collective tags the blocking form consumes at this
// communicator size; the request holds them until Wait, or until its
// body finishes after Cancel, and a reservation that would reuse a held tag aborts the rank with
// ErrTagAlias instead of mixing two collectives' messages.
func (c *Comm) iStart(op string, peers, tags int, body func(*Comm) []float64) *Request {
	c.checkSelfAlive()
	r := &Request{c: c, isRecv: true, coll: &collPending{
		op: op, ctx: c.ctx, cseq: c.collSeq, peers: peers,
		res: make(chan collResult, 1),
	}}
	if c.obs != nil {
		r.initObs = c.obs.Since()
		r.hasInit = true
	}
	// The clone shares the world, transport, injector (mutex-guarded),
	// and revocation epoch, but gets a private Stats shard: Stats are
	// single-writer per rank, so the owner folds them and records the
	// comm span at Wait. The recorder stays attached with async set —
	// comm spans are suppressed on the clone, but its messages still
	// record causal edges (through the fabric lane, since the clone's
	// goroutine does not own the rank's shard).
	cc := new(Comm)
	*cc = *c
	cc.stats = &Stats{}
	cc.async = true
	cc.collHeld = nil
	c.reserveCollTags(tags)
	c.collHeld = append(c.collHeld, r.coll)
	w := c.w
	cp := r.coll
	w.asyncWG.Add(1)
	go func() {
		defer w.asyncWG.Done()
		out := collResult{stats: cc.stats}
		func() {
			// Catch every unwind — commAbort, rankCrash, runAbort,
			// rankFenced — and hand it to Wait: the failure must take
			// effect on the owning rank's goroutine, where the run's
			// recovery machinery expects it.
			defer func() { out.panicked = recover() }()
			out.data = body(cc)
		}()
		cp.res <- out
	}()
	return r
}

// completedColl wraps an already-finished collective (run inline on a
// singleton communicator) as a Request, so callers handle p==1
// uniformly.
func completedColl(c *Comm, op string, data []float64) *Request {
	r := &Request{c: c, isRecv: true, coll: &collPending{
		op: op, ctx: c.ctx, cseq: c.collSeq, res: make(chan collResult, 1),
	}}
	r.coll.res <- collResult{data: data}
	return r
}

// Iallgather starts a nonblocking Allgather. send is snapshotted at the
// call, so the caller's buffer is free immediately; the concatenated
// result comes back from Wait.
func (c *Comm) Iallgather(send []float64) *Request {
	if c.Size() == 1 {
		// The blocking form consumes no collective tag at size 1; run it
		// inline (it cannot block) so the tag sequence stays identical.
		return completedColl(c, "allgather", c.Allgather(send))
	}
	buf := append([]float64(nil), send...)
	return c.iStart("allgather", c.Size()-1, 1, func(cc *Comm) []float64 {
		return cc.Allgather(buf)
	})
}

// Iallgatherv starts a nonblocking Allgatherv; counts[i] is the length
// rank i contributes. Both arguments are snapshotted at the call.
func (c *Comm) Iallgatherv(send []float64, counts []int) *Request {
	if c.Size() == 1 {
		return completedColl(c, "allgather", c.Allgatherv(send, counts))
	}
	buf := append([]float64(nil), send...)
	cnt := append([]int(nil), counts...)
	return c.iStart("allgather", c.Size()-1, 1, func(cc *Comm) []float64 {
		return cc.Allgatherv(buf, cnt)
	})
}

// Ibcast starts a nonblocking Bcast of root's data. The argument is
// snapshotted (non-root ranks contribute only its length); every rank
// receives the broadcast payload from Wait — the caller's buffer is
// not written.
func (c *Comm) Ibcast(root int, data []float64) *Request {
	buf := append([]float64(nil), data...)
	return c.iStart("bcast", c.Size()-1, 1, func(cc *Comm) []float64 {
		return cc.Bcast(root, buf)
	})
}

// Ireduce starts a nonblocking element-wise sum Reduce onto root. Wait
// returns the total on root and nil elsewhere.
func (c *Comm) Ireduce(root int, send []float64) *Request {
	buf := append([]float64(nil), send...)
	return c.iStart("reduce", c.Size()-1, 1, func(cc *Comm) []float64 {
		return cc.Reduce(root, buf)
	})
}

// Isendrecv starts a nonblocking Sendrecv: the send half is eager
// (like Sendrecv's) and completes here; the receive half is claimed in
// the background and returned by Wait. Both halves use the same tag.
// This is the shift primitive of the overlapped Cannon k-loop: post
// the shift, run the local GEMM, then Wait for the next block.
func (c *Comm) Isendrecv(dst, src, tag int, sendData []float64) *Request {
	c.checkSelfAlive()
	c.checkPeer(dst, "Isendrecv")
	c.checkTag(tag)
	func() {
		defer c.commEnd(c.commBegin("p2p", 1))
		c.send(dst, tag, sendData)
	}()
	return c.Irecv(src, tag)
}
