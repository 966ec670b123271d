package mpi

import (
	"sync"
	"time"
)

// This file is the point-to-point matching layer of the runtime, built
// the way MPI implementations build theirs. Every destination world
// rank owns one inbox: a mutex and a map from (ctx, src, tag) to an
// entry holding a FIFO of unexpected envelopes (sent, not yet asked
// for) and a FIFO of posted receives (asked for, not yet sent). A send
// locks only its destination's inbox and hands the envelope to the
// oldest matching posted receive, or queues it. A receive pops the
// queue or posts itself and sleeps on a pooled one-slot channel. An
// entry never holds both queued envelopes and posted receives, and it
// is deleted the moment both are empty, so the inbox's memory is
// bounded by the messages and receives in flight — not by the number
// of (ctx, src, tag) triples a long run has ever used.

// inbox is the matching state of one destination rank.
type inbox struct {
	mu      sync.Mutex
	entries map[boxKey]*entry
}

// entry is one (ctx, src, dst, tag) link's matching state.
type entry struct {
	q      []envelope // unexpected envelopes, q[head:] in send order
	head   int
	posted []chan envelope // posted receives, oldest first
	// notFull is created by a sender that found q at ChanCap and closed
	// by the next pop, waking every sender blocked on this link.
	notFull chan struct{}
}

func (e *entry) queued() int { return len(e.q) - e.head }

// slotPool recycles the one-slot channels posted receives sleep on. A
// slot goes back to the pool only when empty.
var slotPool = sync.Pool{New: func() any { return make(chan envelope, 1) }}

// timerPool recycles the run-timeout timers of blocking operations.
var timerPool sync.Pool

// getTimer returns a timer armed to fire after d.
func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer stops t, drains a fire nobody received, and recycles it.
func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// lookup returns key's entry, creating it if needed. Called with
// ib.mu held.
func (ib *inbox) lookup(key boxKey) *entry {
	e := ib.entries[key]
	if e == nil {
		e = &entry{}
		ib.entries[key] = e
	}
	return e
}

// retire deletes key's entry once it holds neither envelopes nor posted
// receives. Called with ib.mu held.
func (ib *inbox) retire(key boxKey, e *entry) {
	if e.queued() > 0 || len(e.posted) > 0 {
		return
	}
	delete(ib.entries, key)
}

// put is the single way an envelope enters the fabric's receive side:
// it hands env to the oldest receive posted on key, or queues it. When
// the link already holds ChanCap unreceived envelopes nothing is
// queued, and put returns a channel closed by the next receive on the
// link; the caller decides whether to wait on it, retry later, or give
// up. A nil result means env was accepted. An envelope handed to a
// posted receive is acknowledged to the transport at once.
func (w *world) put(key boxKey, env envelope) <-chan struct{} {
	if o := w.opt.Obs; o != nil {
		env.at = o.Since()
	}
	ib := &w.inboxes[key.dst]
	ib.mu.Lock()
	e := ib.lookup(key)
	if len(e.posted) > 0 {
		slot := e.posted[0]
		n := copy(e.posted, e.posted[1:])
		e.posted[n] = nil
		e.posted = e.posted[:n]
		slot <- env // one slot, posted empty: never blocks
		ib.retire(key, e)
		ib.mu.Unlock()
		w.ack(key, env.seq)
		return nil
	}
	defer ib.mu.Unlock()
	if e.queued() >= w.opt.ChanCap {
		if e.notFull == nil {
			e.notFull = make(chan struct{})
		}
		return e.notFull
	}
	if e.head > 0 && len(e.q) == cap(e.q) {
		// Slide the live tail to the front instead of growing.
		n := copy(e.q, e.q[e.head:])
		clear(e.q[n:])
		e.q, e.head = e.q[:n], 0
	}
	e.q = append(e.q, env)
	return nil
}

// claim is one receive's hold on its link: an envelope already taken
// from the queue (have), or a posted slot a sender will fill.
type claim struct {
	key  boxKey
	env  envelope
	have bool
	slot chan envelope
}

// take pops the oldest queued envelope on cl's link into cl, and
// acknowledges it to the transport, or posts cl behind any receives
// already waiting there.
func (w *world) take(cl *claim) {
	ib := &w.inboxes[cl.key.dst]
	ib.mu.Lock()
	e := ib.lookup(cl.key)
	if e.queued() == 0 {
		cl.slot = slotPool.Get().(chan envelope)
		e.posted = append(e.posted, cl.slot)
		ib.mu.Unlock()
		return
	}
	cl.env, cl.have = e.q[e.head], true
	e.q[e.head] = envelope{}
	e.head++
	if e.notFull != nil {
		close(e.notFull)
		e.notFull = nil
	}
	ib.retire(cl.key, e)
	ib.mu.Unlock()
	w.ack(cl.key, cl.env.seq)
}

// withdraw takes cl's posted slot back out of its entry. A slot some
// sender already filled cannot be withdrawn: its envelope moves into cl
// (have) instead. Either way the slot returns to the pool.
func (w *world) withdraw(cl *claim) {
	if cl.slot == nil {
		return
	}
	ib := &w.inboxes[cl.key.dst]
	ib.mu.Lock()
	matched := true
	if e := ib.entries[cl.key]; e != nil {
		for i, s := range e.posted {
			if s == cl.slot {
				copy(e.posted[i:], e.posted[i+1:])
				e.posted[len(e.posted)-1] = nil
				e.posted = e.posted[:len(e.posted)-1]
				ib.retire(cl.key, e)
				matched = false
				break
			}
		}
	}
	ib.mu.Unlock()
	if matched {
		// Filled under the inbox lock, so the envelope is already there.
		cl.env, cl.have = <-cl.slot, true
	}
	slotPool.Put(cl.slot)
	cl.slot = nil
}

// ready reports whether cl holds an envelope, collecting it from a
// filled slot without blocking.
func (cl *claim) ready() bool {
	if cl.have {
		return true
	}
	if cl.slot == nil {
		return false
	}
	select {
	case cl.env = <-cl.slot:
		slotPool.Put(cl.slot)
		cl.slot, cl.have = nil, true
		return true
	default:
		return false
	}
}

// pop hands over cl's envelope and empties the claim.
func (cl *claim) pop() envelope {
	env := cl.env
	cl.env, cl.have = envelope{}, false
	return env
}

// Gauges is a snapshot of the message path's live resources.
type Gauges struct {
	// InboxEntries counts live (ctx, src, dst, tag) matching entries:
	// links holding queued envelopes or posted receives. It returns to
	// zero whenever no message or receive is in flight.
	InboxEntries int
	// QueuedEnvelopes counts messages sent but not yet received.
	QueuedEnvelopes int
	// PostedRecvs counts receives posted but not yet matched.
	PostedRecvs int
}

// gauges scans every inbox.
func (w *world) gauges() Gauges {
	var g Gauges
	for i := range w.inboxes {
		ib := &w.inboxes[i]
		ib.mu.Lock()
		g.InboxEntries += len(ib.entries)
		for _, e := range ib.entries {
			g.QueuedEnvelopes += e.queued()
			g.PostedRecvs += len(e.posted)
		}
		ib.mu.Unlock()
	}
	return g
}

// Gauges returns a live snapshot of the world's message-path
// resources. Unlike the rest of Comm it may be called from any
// goroutine.
func (c *Comm) Gauges() Gauges { return c.w.gauges() }
