// Package mpi is a message-passing runtime for Go that plays the role
// MPI plays in the reference CA3DMM implementation.
//
// Each "process" (rank) is a goroutine; point-to-point messages are
// tagged float64 payloads matched against posted receives in the
// destination rank's inbox (see inbox.go); communicators can be
// split into subgroups exactly like MPI_Comm_split; and the collective
// operations CA3DMM and its baselines need (broadcast, allgather(v),
// reduce-scatter, allreduce, alltoallv, barrier) are implemented with
// the standard distributed algorithms (binomial trees, recursive
// doubling/halving, rings, pairwise exchange) on top of point-to-point
// messages. Because the collectives are built from real messages, a
// program run under this package executes the same communication
// schedule — the same messages, sizes, and dependency structure — as
// its MPI twin, and the per-rank statistics the runtime gathers are
// the communication-cost measurements the CA3DMM paper reasons about.
//
// The runtime detects common collective misuse (mismatched buffer
// sizes, partial participation) by timing out stalled receives and
// failing the run with a diagnostic instead of hanging.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options configures a Run.
type Options struct {
	// Timeout bounds how long any single receive may wait before the
	// run is aborted with a deadlock diagnostic. Zero means a default
	// of 60 seconds.
	Timeout time.Duration
	// ChanCap bounds the messages one (sender, receiver, tag) link may
	// hold sent but not yet received. Zero means a default of 256. A
	// send blocks only when its link is full, which for the algorithms
	// in this repository indicates a schedule bug; blocked sends are
	// subject to Timeout too. The bound costs nothing up front: a link's
	// queue exists only while it holds messages or posted receives (see
	// inbox.go).
	ChanCap int
	// Fault attaches a deterministic fault-injection plan to the run;
	// nil injects nothing. See FaultPlan.
	Fault *FaultPlan
	// Obs attaches an observability recorder: every collective and
	// point-to-point call records a comm span, and faults, recovery
	// actions, and checkpoint operations record instant events. Nil
	// disables recording at the cost of one branch per hook.
	Obs *obs.Recorder
	// Reliable turns on the ack/retransmit delivery transport (see
	// transport.go) with the given tuning. The transport also switches
	// on automatically — with default tuning — whenever Fault contains
	// a FaultDrop or FaultPartition spec, since the raw fabric cannot
	// survive either.
	Reliable *ReliableOptions
	// Unreliable forces the raw fabric even against a lossy fault
	// plan: drops and partitions then stand, and the affected
	// operations surface as ErrTimeout / net:lost records. Used to
	// demonstrate what the transport is for.
	Unreliable bool
	// Heartbeat runs the failure detector (see detector.go) with the
	// given tuning. The detector also starts automatically — with
	// default tuning — when Fault contains a FaultPartition spec.
	Heartbeat *HeartbeatOptions
}

const (
	defaultTimeout = 60 * time.Second
	defaultChanCap = 256
)

// world is the shared state of one Run: the per-rank inboxes, the
// per-rank statistics, and the fault-tolerance state (dead-rank set,
// agreement rendezvous, checkpoint store).
type world struct {
	size    int
	opt     Options
	inboxes []inbox // indexed by destination world rank
	stats   []Stats
	failMu  sync.Mutex
	failure error

	// deadCh[r] holds rank r's current death channel, closed when the
	// rank dies or is fenced; lookups are lock-free via deadChan. The
	// channel is an *incarnation*: when a healed partition lets the
	// detector re-admit a fenced rank into the spare pool, a fresh open
	// channel is swapped in, so peers again block on (rather than
	// instantly abort against) the re-admitted rank. Blocked operations
	// select on their peer's current channel to fail fast with
	// ErrRankFailed instead of waiting for the timeout.
	deadCh []atomic.Pointer[chan struct{}]

	// Reliable-transport and failure-detector state. tr and det are
	// nil when the respective subsystem is off; shutdown is closed
	// after every rank goroutine has returned, and netWG joins every
	// background goroutine (retransmit loops, probers, delayed
	// deliveries) before the run's statistics are folded.
	tr       *transport
	det      *detector
	shutdown chan struct{}
	netWG    sync.WaitGroup
	// asyncWG joins the background goroutines of nonblocking
	// collectives (I-collective bodies). They are joined before
	// shutdown closes — after revoking every epoch, so an abandoned
	// request cannot block the join — because their communication may
	// still arm netWG-tracked work (retransmit registration, delayed
	// deliveries), which must all be added before netWG.Wait begins.
	asyncWG sync.WaitGroup
	doneOKs []atomic.Bool  // rank returned normally
	slowNs  []atomic.Int64 // rank's injected straggle delay (ns)
	netMu   sync.Mutex     // guards net and opNet
	net     []NetStats     // per-rank transport/detector counters
	opNet   []map[string]*opNetDelta
	obsMu   sync.Mutex // serializes the obs "fabric" lane
	// causalSeq[r] issues rank r's causal message sequence numbers
	// (atomic: a rank's async clones stamp concurrently with it).
	causalSeq []atomic.Uint64
	partMu    sync.RWMutex // guards parts
	parts     []partitionState
	partOn    atomic.Int32 // fast-path flag: any partition ever activated

	// everSuspected[r] is set when any prober suspects rank r and
	// cleared (once, with an hb:clear event) when the suspicion is
	// retracted — RTT recovered, partition healed, or r finished.
	everSuspected []atomic.Bool

	// ftMu guards the remaining fault-tolerance state.
	ftMu      sync.Mutex
	ftCond    *sync.Cond     // broadcast on deaths, arrivals, lobby claims
	deadCause []error        // per world rank; non-nil once dead
	crashed   []*RankFailure // injected crashes, in detection order
	absolved  []bool         // crash was absorbed by a Shrink/Replace
	agrees    map[string]*agreeState
	replaces  map[string]*replaceState       // Replace rendezvous, keyed like agrees
	rvs       map[string]*revocation         // shared revocation per shrink epoch
	ckpt      map[string]map[int][]CkptBlock // name -> world rank -> blocks
	lobby     map[int]*lobbyEntry            // parked fenced ranks awaiting readmission
	lobbyShut bool                           // set once recovery ends; parked ranks leave
}

// deadChan returns rank r's current death-channel incarnation.
func (w *world) deadChan(r int) chan struct{} { return *w.deadCh[r].Load() }

// markDead records rank r's departure with its cause and wakes every
// blocked peer and agreement waiter. The death channel is closed under
// ftMu so it always pairs with the current incarnation (a concurrent
// readmission cannot race the close against a channel swap).
func (w *world) markDead(r int, cause error) {
	w.ftMu.Lock()
	if w.deadCause[r] == nil {
		w.deadCause[r] = cause
		close(w.deadChan(r))
		w.ftCond.Broadcast()
	}
	w.ftMu.Unlock()
}

// isDead reports whether rank r's goroutine has unwound (lock-free).
func (w *world) isDead(r int) bool {
	select {
	case <-w.deadChan(r):
		return true
	default:
		return false
	}
}

func (w *world) causeOf(r int) error {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	return w.deadCause[r]
}

// noteCrash registers an injected rank crash. Crashes are not run
// errors by themselves: a Shrink by the survivors absolves them, and
// only unabsolved crashes surface from Run.
func (w *world) noteCrash(f *RankFailure) {
	w.ftMu.Lock()
	w.crashed = append(w.crashed, f)
	w.absolved = append(w.absolved, false)
	w.ftMu.Unlock()
}

// absolveDead marks the injected crashes of every dead rank in ranks
// as handled: the survivors have shrunk around them, so the crashes
// are no longer run errors.
func (w *world) absolveDead(ranks []int) {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	for _, r := range ranks {
		if w.deadCause[r] == nil {
			continue
		}
		for i, f := range w.crashed {
			if f.Rank == r {
				w.absolved[i] = true
			}
		}
	}
}

// recordFailure notes the first failure of the run; later failures are
// kept per rank and reported as secondary.
func (w *world) recordFailure(err error) {
	w.failMu.Lock()
	if w.failure == nil {
		w.failure = err
	}
	w.failMu.Unlock()
}

func (w *world) fail(err error) {
	w.recordFailure(err)
	panic(runAbort{err})
}

// boxKey names one link: the messages of one communicator context
// from src to dst under one tag, delivered in send order.
type boxKey struct {
	ctx      string
	src, dst int // world ranks
	tag      int
}

// runAbort wraps an unrecoverable error (runtime misuse, programming
// bug) used to unwind a rank goroutine. It is never caught by the
// resilient execution path.
type runAbort struct{ err error }

// commAbort wraps a recoverable communication failure (dead peer,
// revoked communicator, timeout). The resilient execution path catches
// it via RecoverComm; otherwise it surfaces from Run like any failure.
type commAbort struct{ err error }

// rankCrash unwinds a rank hit by an injected FaultCrash.
type rankCrash struct{ failure *RankFailure }

// RecoverComm converts an in-flight communication failure into an
// error: deferred inside an attempt, it catches commAbort panics
// (ErrRankFailed / ErrRevoked / ErrTimeout) and stores the error in
// *errp, re-panicking everything else (misuse aborts, injected
// crashes, user panics). It is the building block for self-healing
// executors:
//
//	func attempt(c *mpi.Comm) (err error) {
//		defer mpi.RecoverComm(&err)
//		... collectives that may fail ...
//	}
func RecoverComm(errp *error) {
	rec := recover()
	if rec == nil {
		return
	}
	if ab, ok := rec.(commAbort); ok {
		*errp = ab.err
		return
	}
	panic(rec)
}

// PanicCause translates a recovered rank-unwinding panic value into
// the error it carries, without consuming it: a long-lived host (e.g.
// a persistent engine's rank loop) can observe why a rank is dying,
// mark its own state poisoned, and then re-panic the original value so
// the runtime's accounting is untouched. Returns nil for a nil recover
// value.
func PanicCause(rec any) error {
	switch ab := rec.(type) {
	case nil:
		return nil
	case commAbort:
		return ab.err
	case runAbort:
		return ab.err
	case rankCrash:
		return ab.failure
	case rankFenced:
		return fmt.Errorf("mpi: rank fenced by the failure detector: %w", ErrUnreachable)
	case error:
		return ab
	default:
		return fmt.Errorf("mpi: rank panicked: %v", rec)
	}
}

// Report holds the outcome of a Run: per-rank communication
// statistics indexed by world rank, and the message path's resources
// still held when the run ended (messages nobody received, receives
// nobody matched).
type Report struct {
	Ranks  []Stats
	Gauges Gauges
}

// MaxBytesSent returns the maximum number of bytes sent by any rank,
// the "communication size Q" measure of the paper (in bytes).
func (r *Report) MaxBytesSent() int64 {
	var m int64
	for i := range r.Ranks {
		if b := r.Ranks[i].BytesSent; b > m {
			m = b
		}
	}
	return m
}

// MaxMsgsSent returns the maximum number of messages sent by any rank,
// the "communication latency L" measure of the paper.
func (r *Report) MaxMsgsSent() int64 {
	var m int64
	for i := range r.Ranks {
		if b := r.Ranks[i].MsgsSent; b > m {
			m = b
		}
	}
	return m
}

// TotalBytesSent sums bytes sent over all ranks.
func (r *Report) TotalBytesSent() int64 {
	var t int64
	for i := range r.Ranks {
		t += r.Ranks[i].BytesSent
	}
	return t
}

// MaxPeakAlloc returns the maximum over ranks of the peak matrix
// memory the rank registered via Comm.RecordAlloc (bytes).
func (r *Report) MaxPeakAlloc() int64 {
	var m int64
	for i := range r.Ranks {
		if b := r.Ranks[i].PeakAlloc; b > m {
			m = b
		}
	}
	return m
}

// RunError is the failure report of a Run. First is the earliest
// failure recorded anywhere in the run — the root cause — and
// Secondary holds the other ranks' failures (typically cascades: peers
// of the first failed rank aborting with ErrRankFailed or timing out).
// errors.Is and errors.As traverse every contained error.
type RunError struct {
	First     error
	Secondary []error
}

func (e *RunError) Error() string {
	if len(e.Secondary) == 0 {
		return e.First.Error()
	}
	return fmt.Sprintf("%v (and %d secondary rank failure(s))", e.First, len(e.Secondary))
}

// Unwrap exposes every failure to errors.Is/errors.As.
func (e *RunError) Unwrap() []error {
	return append([]error{e.First}, e.Secondary...)
}

// Run executes fn on p goroutine ranks with default options and waits
// for all of them. It returns per-rank communication statistics. A
// panic in any rank, a receive timeout, or a runtime-detected misuse
// aborts the run and is reported as an error.
func Run(p int, fn func(*Comm)) (*Report, error) {
	return RunOpt(p, Options{}, fn)
}

// worldCtxSeq numbers root communicator contexts across worlds in this
// process, so repeat executions sharing one obs recorder stay
// distinguishable (see RunOpt).
var worldCtxSeq atomic.Uint64

// RunOpt is Run with explicit options.
func RunOpt(p int, opt Options, fn func(*Comm)) (*Report, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", p)
	}
	if opt.Timeout <= 0 {
		opt.Timeout = defaultTimeout
	}
	if opt.ChanCap <= 0 {
		opt.ChanCap = defaultChanCap
	}
	w := &world{
		size:          p,
		opt:           opt,
		inboxes:       make([]inbox, p),
		stats:         make([]Stats, p),
		deadCh:        make([]atomic.Pointer[chan struct{}], p),
		deadCause:     make([]error, p),
		agrees:        make(map[string]*agreeState),
		replaces:      make(map[string]*replaceState),
		rvs:           make(map[string]*revocation),
		ckpt:          make(map[string]map[int][]CkptBlock),
		lobby:         make(map[int]*lobbyEntry),
		shutdown:      make(chan struct{}),
		doneOKs:       make([]atomic.Bool, p),
		slowNs:        make([]atomic.Int64, p),
		everSuspected: make([]atomic.Bool, p),
		net:           make([]NetStats, p),
		opNet:         make([]map[string]*opNetDelta, p),
		causalSeq:     make([]atomic.Uint64, p),
	}
	w.ftCond = sync.NewCond(&w.ftMu)
	for r := range w.inboxes {
		w.inboxes[r].entries = make(map[boxKey]*entry)
	}
	for r := range w.deadCh {
		ch := make(chan struct{})
		w.deadCh[r].Store(&ch)
		w.opNet[r] = make(map[string]*opNetDelta)
	}
	var seed uint64
	if opt.Fault != nil {
		seed = opt.Fault.Seed
	}
	if !opt.Unreliable && (opt.Reliable != nil || opt.Fault.needsTransport()) {
		var ro ReliableOptions
		if opt.Reliable != nil {
			ro = *opt.Reliable
		}
		w.tr = newTransport(w, ro, seed)
	}
	if opt.Heartbeat != nil || (!opt.Unreliable && opt.Fault.needsDetector()) {
		var ho HeartbeatOptions
		if opt.Heartbeat != nil {
			ho = *opt.Heartbeat
		}
		w.det = &detector{opt: ho.withDefaults()}
	}
	worldRanks := make([]int, p)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	worldRv := &revocation{ch: make(chan struct{})}
	// The root context name is unique per world: a profiling CLI reuses
	// one recorder across repeat executions, and collective skew groups
	// by (ctx, op, seq) — a shared "w" would mix same-numbered
	// collectives from different runs into one skew row.
	rootCtx := fmt.Sprintf("w%d", worldCtxSeq.Add(1))
	// Register the world epoch's revocation so a detector-driven fence
	// can revoke it alongside every shrink epoch (see revokeAll).
	w.rvs[rootCtx] = worldRv

	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			inj := newInjector(opt.Fault, rank)
			if w.det != nil {
				stop := make(chan struct{})
				w.netWG.Add(1)
				go w.probeLoop(rank, stop)
				defer close(stop)
			}
			defer func() {
				rec := recover()
				inj.flush(w)
				switch ab := rec.(type) {
				case nil:
					// Normal return: the rank is done, but peers may
					// legitimately still hold buffered messages from
					// it, so it is not marked dead — and it may no
					// longer be suspected or fenced. Any outstanding
					// suspicion is retracted here so a straggler that
					// completed is visibly cleared, not just forgotten
					// (the suspect ≠ fence contract).
					w.doneOKs[rank].Store(true)
					if w.everSuspected[rank].CompareAndSwap(true, false) && !w.isDead(rank) {
						w.addNet(rank, func(n *NetStats) { n.Clears++ })
						w.netInstant("hb:clear", fmt.Sprintf("rank %d completed; suspicion cleared without a fence", rank))
					}
					return
				case rankFenced:
					// A peer's failure detector (or retransmit budget)
					// already filed this rank's failure record when it
					// fenced it; the unwind itself adds nothing.
					return
				case rankCrash:
					// Injected process loss: not a run error by
					// itself — survivors may shrink around it.
					w.noteCrash(ab.failure)
					w.markDead(rank, ab.failure)
				case runAbort:
					errs[rank] = ab.err
					w.markDead(rank, ab.err)
				case commAbort:
					errs[rank] = ab.err
					w.recordFailure(ab.err)
					w.markDead(rank, ab.err)
				default:
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
					w.recordFailure(errs[rank])
					w.markDead(rank, errs[rank])
				}
			}()
			c := &Comm{
				w:         w,
				ctx:       rootCtx,
				rank:      rank,
				ranks:     worldRanks,
				stats:     &w.stats[rank],
				timeout:   opt.Timeout,
				worldRank: rank,
				inj:       inj,
				rv:        worldRv,
				obs:       opt.Obs,
			}
			fn(c)
		}(r)
	}
	wg.Wait()
	// Drain nonblocking collectives abandoned without a Wait (a
	// consumer that unwound mid-prefetch): revoking every epoch wakes
	// their blocked bodies, and the join guarantees no request
	// goroutine is still running — or about to arm more background
	// work — below.
	w.revokeAll()
	w.asyncWG.Wait()
	// Join every background goroutine (retransmit loops, probers,
	// delayed deliveries) before folding their accumulators into the
	// per-rank Stats: after the join nothing concurrently touches them.
	close(w.shutdown)
	w.netWG.Wait()
	w.foldNetStats()
	return w.finish(errs)
}

// finish assembles the run outcome: the first recorded failure becomes
// the primary error, every other rank failure (including unabsolved
// injected crashes) is reported as secondary, and a run whose only
// casualties were crashes absolved by a Shrink succeeds.
func (w *world) finish(errs []error) (*Report, error) {
	var all []error
	for _, e := range errs {
		if e != nil {
			all = append(all, e)
		}
	}
	w.ftMu.Lock()
	var unabsolved []*RankFailure
	for i, f := range w.crashed {
		if !w.absolved[i] {
			unabsolved = append(unabsolved, f)
		}
	}
	w.ftMu.Unlock()
	first := w.failure
	if len(unabsolved) > 0 {
		// An unabsolved crash is the root cause of every cascade that
		// followed; report the earliest one first.
		first = unabsolved[0]
		for _, f := range unabsolved[1:] {
			all = append(all, f)
		}
	}
	if first == nil && len(all) > 0 {
		first = all[0]
	}
	if first == nil {
		return &Report{Ranks: w.stats, Gauges: w.gauges()}, nil
	}
	var secondary []error
	seenFirst := false
	for _, e := range all {
		if e == first && !seenFirst {
			seenFirst = true
			continue
		}
		secondary = append(secondary, e)
	}
	return nil, &RunError{First: first, Secondary: secondary}
}
