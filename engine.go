package ca3dmm

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mpi"
)

// This file implements the persistent Engine: a plan, its split
// communicators, its redistribution routes, and its buffer arena, all
// built once and reused across multiplications of the same shape. The
// one-shot Multiply facade is a NewEngine + one MultiplyGlobal + Close,
// so the engine path and the facade path are literally the same code;
// iterative callers keep the engine open and pay the setup exactly
// once.
//
// Concurrency model. NewEngine launches the simulated world
// (mpi.RunOpt) on a background goroutine; each rank builds its session
// (communicator splits, route cache, arena) and then blocks on a
// per-rank job channel. Multiply is serialized on the driver side: it
// posts one job to every rank channel, waits for all ranks to finish
// it, and collects the per-rank outputs. Close closes the channels,
// which ends every rank loop and lets the world shut down normally.
//
// Failure model. A rank that dies mid-job — injected crash, fencing,
// or a communication abort propagated from a dead peer — unwinds
// through a deferred recover that (in order) poisons the engine with
// the typed cause, marks itself finished on its current job so the
// driver never hangs, hands its job channel to a reaper goroutine that
// finishes anything posted later, and re-panics the original value so
// the runtime applies exactly the same crash semantics as the one-shot
// path. The poison-before-finish ordering guarantees that any Multiply
// issued after the failed call observes the poison and returns
// ErrEngineFailed instead of dispatching into a dead world.

// ErrEngineClosed is returned by Engine calls after Close.
var ErrEngineClosed = errors.New("ca3dmm: engine closed")

// ErrEngineFailed is returned by Engine calls after a rank failure has
// poisoned the engine. The returned error also wraps the root cause,
// so errors.Is(err, mpi.ErrRankFailed) etc. still work.
var ErrEngineFailed = errors.New("ca3dmm: engine failed")

// sessionStats is the per-rank amortization ledger.
type sessionStats struct {
	setupNs                int64
	routeHits, routeMisses int64
	arenaHits, arenaMisses int64
}

// session is the per-rank persistent execution state of one plan.
type session interface {
	execute(aLocal *Matrix, aL Layout, bLocal *Matrix, bL Layout, cDst *Matrix, cL Layout) (*Matrix, StageTimes)
	stats() sessionStats
}

// coreSession wraps the CA3DMM ExecState: cached split communicators,
// route cache, and arena.
type coreSession struct{ st *core.ExecState }

func (s coreSession) execute(aLocal *Matrix, aL Layout, bLocal *Matrix, bL Layout, cDst *Matrix, cL Layout) (*Matrix, StageTimes) {
	out, tm := s.st.Execute(aLocal, aL, bLocal, bL, cDst, cL)
	return out, StageTimes{
		Redistribute: tm.Redistribute,
		ReplicateAB:  tm.Allgather + tm.CannonComm,
		LocalCompute: tm.CannonComp,
		ReduceC:      tm.ReduceScatter,
		Total:        tm.Total,
		MatmulOnly:   tm.MatmulOnly(),
	}
}

func (s coreSession) stats() sessionStats {
	rh, rm := s.st.RouteStats()
	ah, am := s.st.ArenaStats()
	return sessionStats{
		setupNs:   s.st.SetupNs(),
		routeHits: rh, routeMisses: rm,
		arenaHits: ah, arenaMisses: am,
	}
}

// plainSession adapts the non-CA3DMM executors, which rebuild their
// communicators per call: the engine still amortizes planning and
// scatter for them, just not the communicator layer.
type plainSession struct {
	c  *Comm
	ex executor
}

func (s plainSession) execute(aLocal *Matrix, aL Layout, bLocal *Matrix, bL Layout, cDst *Matrix, cL Layout) (*Matrix, StageTimes) {
	out, st := s.ex.execute(s.c, aLocal, aL, bLocal, bL, cL)
	if cDst != nil {
		cDst.CopyFrom(out)
		return cDst, st
	}
	return out, st
}

func (s plainSession) stats() sessionStats { return sessionStats{} }

// newSession builds the calling rank's persistent state. Collective
// over c for the CA3DMM algorithms (communicator splits).
func (p *Plan) newSession(c *Comm) session {
	if ce, ok := p.exec.(coreExec); ok {
		return coreSession{ce.p.NewState(c)}
	}
	return plainSession{c: c, ex: p.exec}
}

// engineJob is one multiplication dispatched to all ranks. finish is
// idempotent per rank (CAS), so a dying rank's recover and its reaper
// can both call it without double-counting.
type engineJob struct {
	aLocs, bLocs []*Matrix
	cDsts        []*Matrix // nil, or per-rank caller-owned destinations
	aL, bL, cL   Layout

	outs     []*Matrix
	times    []StageTimes
	finished []atomic.Bool
	pending  atomic.Int32
	done     chan struct{}
}

func newEngineJob(p int, aLocs []*Matrix, aL Layout, bLocs []*Matrix, bL Layout, cDsts []*Matrix, cL Layout) *engineJob {
	j := &engineJob{
		aLocs: aLocs, bLocs: bLocs, cDsts: cDsts,
		aL: aL, bL: bL, cL: cL,
		outs:     make([]*Matrix, p),
		times:    make([]StageTimes, p),
		finished: make([]atomic.Bool, p),
		done:     make(chan struct{}),
	}
	j.pending.Store(int32(p))
	return j
}

func (j *engineJob) cDst(rank int) *Matrix {
	if j.cDsts == nil {
		return nil
	}
	return j.cDsts[rank]
}

func (j *engineJob) finish(rank int) {
	if j.finished[rank].CompareAndSwap(false, true) {
		if j.pending.Add(-1) == 0 {
			close(j.done)
		}
	}
}

// Engine is a persistent multiplication engine for one problem shape:
// the plan, the per-rank split communicators, the redistribution route
// caches, and the buffer arenas are built once and reused by every
// Multiply. Second-and-later calls therefore do zero planning, zero
// communicator construction, and zero rank-0 data movement — the
// caller's blocks go straight through the cached routes.
//
// Multiply and MultiplyGlobal are safe for concurrent use (they
// serialize internally); an Engine must be Closed to release its
// simulated world.
type Engine struct {
	plan *Plan

	jobs []chan *engineJob
	dead []atomic.Bool

	poison atomic.Pointer[error]

	statsMu sync.Mutex
	ranks   []sessionStats
	// comm is rank 0's world communicator, kept to read the message
	// path's gauges (nil until rank 0 starts).
	comm atomic.Pointer[Comm]

	mu     sync.Mutex
	closed bool
	calls  int

	runDone chan struct{}
	rep     *mpi.Report
	runErr  error
}

// NewEngine plans C = op(A)·op(B) for op(A) m×k and op(B) k×n on p
// ranks, starts the persistent world, and builds every rank's split
// communicators, route cache, and buffer arena. The returned engine
// must be Closed.
func NewEngine(m, n, k, p int, cfg Config) (*Engine, error) {
	plan, err := NewPlan(m, n, k, p, cfg)
	if err != nil {
		return nil, err
	}
	return newEngineFromPlan(plan), nil
}

func newEngineFromPlan(plan *Plan) *Engine {
	p := plan.Procs
	e := &Engine{
		plan:    plan,
		jobs:    make([]chan *engineJob, p),
		dead:    make([]atomic.Bool, p),
		ranks:   make([]sessionStats, p),
		runDone: make(chan struct{}),
	}
	for r := range e.jobs {
		e.jobs[r] = make(chan *engineJob, 1)
	}
	cfg := plan.Cfg
	go func() {
		rep, err := mpi.RunOpt(p, mpi.Options{
			Obs:       cfg.Trace,
			Timeout:   cfg.Timeout,
			Fault:     cfg.Fault,
			Reliable:  cfg.Net,
			Heartbeat: cfg.Heartbeat,
		}, e.rankLoop)
		e.rep, e.runErr = rep, err
		close(e.runDone)
	}()
	return e
}

// rankLoop is the per-rank body of the persistent world.
func (e *Engine) rankLoop(c *Comm) {
	rank := c.Rank()
	var cur *engineJob
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		e.fail(mpi.PanicCause(rec))
		e.dead[rank].Store(true)
		if cur != nil {
			cur.finish(rank)
		}
		// Finish anything posted to this rank after its death so the
		// driver never waits on a corpse; the reaper ends when Close
		// closes the channel.
		ch := e.jobs[rank]
		go func() {
			for j := range ch {
				j.finish(rank)
			}
		}()
		panic(rec)
	}()
	if rank == 0 {
		e.comm.Store(c)
	}
	ses := e.plan.newSession(c)
	for job := range e.jobs[rank] {
		cur = job
		out, st := ses.execute(job.aLocs[rank], job.aL, job.bLocs[rank], job.bL, job.cDst(rank), job.cL)
		job.outs[rank] = out
		job.times[rank] = st
		e.statsMu.Lock()
		e.ranks[rank] = ses.stats()
		e.statsMu.Unlock()
		cur = nil
		job.finish(rank)
	}
}

// fail poisons the engine with the first failure cause.
func (e *Engine) fail(err error) {
	if err == nil {
		err = errors.New("ca3dmm: rank died")
	}
	e.poison.CompareAndSwap(nil, &err)
}

// failure returns the typed poison error, or nil while healthy.
func (e *Engine) failure() error {
	if p := e.poison.Load(); p != nil {
		return fmt.Errorf("%w: %w", ErrEngineFailed, *p)
	}
	return nil
}

// Multiply runs one multiplication through the persistent state.
// aLocs[r]/bLocs[r] are rank r's blocks of the stored A and B under
// aL/bL (any layouts over the engine's p ranks); cDsts, when non-nil,
// holds caller-owned destination blocks under cL that are overwritten
// in place, making steady-state iteration allocation-free. It returns
// the per-rank C blocks under cL and the maximum per-rank stage times.
//
// After a rank failure Multiply returns an error wrapping both
// ErrEngineFailed and the root cause; it never dispatches into a dead
// world and never hangs on one.
func (e *Engine) Multiply(aLocs []*Matrix, aL Layout, bLocs []*Matrix, bL Layout, cDsts []*Matrix, cL Layout) ([]*Matrix, StageTimes, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, StageTimes{}, ErrEngineClosed
	}
	if err := e.failure(); err != nil {
		return nil, StageTimes{}, err
	}
	if err := e.validate(aLocs, aL, bLocs, bL, cDsts, cL); err != nil {
		return nil, StageTimes{}, err
	}
	job := newEngineJob(e.plan.Procs, aLocs, aL, bLocs, bL, cDsts, cL)
	for r := range e.jobs {
		e.jobs[r] <- job
	}
	<-job.done
	if err := e.failure(); err != nil {
		return nil, StageTimes{}, err
	}
	var worst StageTimes
	for _, st := range job.times {
		worst = maxStages(worst, st)
	}
	e.calls++
	return job.outs, worst, nil
}

// validate rejects malformed inputs on the driver so they surface as
// errors instead of rank panics (which would poison the engine).
func (e *Engine) validate(aLocs []*Matrix, aL Layout, bLocs []*Matrix, bL Layout, cDsts []*Matrix, cL Layout) error {
	p := e.plan.Procs
	m, n, k := e.plan.M, e.plan.N, e.plan.K
	cfg := e.plan.Cfg
	check := func(name string, l Layout, locs []*Matrix, rows, cols int, trans bool, optional bool) error {
		if l == nil {
			return fmt.Errorf("ca3dmm: engine: nil %s layout", name)
		}
		wr, wc := rows, cols
		if trans {
			wr, wc = cols, rows
		}
		if l.GlobalRows() != wr || l.GlobalCols() != wc {
			return fmt.Errorf("ca3dmm: engine: %s layout is %dx%d, want %dx%d", name, l.GlobalRows(), l.GlobalCols(), wr, wc)
		}
		if l.Procs() != p {
			return fmt.Errorf("ca3dmm: engine: %s layout spans %d ranks, engine has %d", name, l.Procs(), p)
		}
		if locs == nil && optional {
			return nil
		}
		if len(locs) != p {
			return fmt.Errorf("ca3dmm: engine: %d %s blocks for %d ranks", len(locs), name, p)
		}
		for r, blk := range locs {
			lr, lc := l.LocalShape(r)
			if blk == nil {
				return fmt.Errorf("ca3dmm: engine: rank %d %s block is nil", r, name)
			}
			if blk.Rows != lr || blk.Cols != lc {
				return fmt.Errorf("ca3dmm: engine: rank %d %s block is %dx%d, layout says %dx%d", r, name, blk.Rows, blk.Cols, lr, lc)
			}
		}
		return nil
	}
	if err := check("A", aL, aLocs, m, k, cfg.TransA, false); err != nil {
		return err
	}
	if err := check("B", bL, bLocs, k, n, cfg.TransB, false); err != nil {
		return err
	}
	return check("C", cL, cDsts, m, n, false, true)
}

// MultiplyGlobal is the convenience path for globally stored operands:
// scatter over 1D column layouts, Multiply, assemble. Unlike warm
// Multiply calls it does move data through rank 0 every call; use
// Multiply with resident blocks for iterative workloads.
func (e *Engine) MultiplyGlobal(a, b *Matrix) (*Matrix, StageTimes, error) {
	m, n := e.plan.M, e.plan.N
	cfg := e.plan.Cfg
	wr, wc := m, e.plan.K
	if cfg.TransA {
		wr, wc = wc, wr
	}
	if a.Rows != wr || a.Cols != wc {
		return nil, StageTimes{}, fmt.Errorf("ca3dmm: engine: A is %dx%d, plan wants %dx%d", a.Rows, a.Cols, wr, wc)
	}
	wr, wc = e.plan.K, n
	if cfg.TransB {
		wr, wc = wc, wr
	}
	if b.Rows != wr || b.Cols != wc {
		return nil, StageTimes{}, fmt.Errorf("ca3dmm: engine: B is %dx%d, plan wants %dx%d", b.Rows, b.Cols, wr, wc)
	}
	p := e.plan.Procs
	aL := ColBlocks(a.Rows, a.Cols, p)
	bL := ColBlocks(b.Rows, b.Cols, p)
	cL := ColBlocks(m, n, p)
	outs, st, err := e.Multiply(dist.Scatter(a, aL), aL, dist.Scatter(b, bL), bL, nil, cL)
	if err != nil {
		return nil, StageTimes{}, err
	}
	return dist.Assemble(outs, cL), st, nil
}

// Close shuts the persistent world down and returns its communication
// report and terminal error (non-nil when a rank died). Close is
// idempotent; concurrent callers all receive the same result.
func (e *Engine) Close() (*mpi.Report, error) {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, ch := range e.jobs {
			close(ch)
		}
	}
	e.mu.Unlock()
	<-e.runDone
	return e.rep, e.runErr
}

// EngineStats is the cumulative amortization ledger of an engine.
type EngineStats struct {
	// Calls counts completed Multiply calls.
	Calls int
	// SetupNs is the total setup work the engine paid exactly once and
	// every later call skipped: communicator splits plus redistribution
	// route builds, summed over ranks.
	SetupNs int64
	// RouteHits/RouteMisses count redistribution route cache lookups
	// over all ranks. Misses stop growing once every (src, dst, trans)
	// triple in use has been seen.
	RouteHits, RouteMisses int64
	// ArenaHits/ArenaMisses count buffer arena lookups over all ranks.
	// Misses stop growing once the shape's buffers reach steady state.
	ArenaHits, ArenaMisses int64
	// InboxEntries and QueuedEnvelopes are live gauges of the world's
	// message path (see mpi.Gauges): both read zero between calls, when
	// every message a call sent has been received.
	InboxEntries, QueuedEnvelopes int
}

// Stats reports the engine's cumulative amortization counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	calls := e.calls
	e.mu.Unlock()
	s := EngineStats{Calls: calls}
	e.statsMu.Lock()
	for _, r := range e.ranks {
		s.SetupNs += r.setupNs
		s.RouteHits += r.routeHits
		s.RouteMisses += r.routeMisses
		s.ArenaHits += r.arenaHits
		s.ArenaMisses += r.arenaMisses
	}
	e.statsMu.Unlock()
	if c := e.comm.Load(); c != nil {
		g := c.Gauges()
		s.InboxEntries, s.QueuedEnvelopes = g.InboxEntries, g.QueuedEnvelopes
	}
	return s
}

// Plan returns the engine's plan.
func (e *Engine) Plan() *Plan { return e.plan }

// NativeLayouts returns the plan's library-native distributions;
// feeding Multiply these layouts skips redistribution entirely.
func (e *Engine) NativeLayouts() (a, b, c Layout) { return e.plan.NativeLayouts() }

// GridDims returns the process grid (pm, pn, pk).
func (e *Engine) GridDims() (pm, pn, pk int) { return e.plan.GridDims() }

// engineKey identifies an engine in an EngineCache. Config is a
// comparable struct (its tuning fields are values, its attachments are
// pointers), so two configurations compare equal exactly when they
// would build interchangeable engines.
type engineKey struct {
	m, n, k, p int
	cfg        Config
}

// EngineCache is an LRU cache of live engines keyed by
// (m, n, k, p, config). Get returns the cached engine for a shape —
// emitting a plan:cache-hit observability event — or builds, caches,
// and returns a new one (plan:cache-miss), closing the least recently
// used engine when over capacity. Engines that failed or were closed
// behind the cache's back are dropped and rebuilt transparently.
//
// The zero value is not usable; use NewEngineCache.
type EngineCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *cacheEntry
	m   map[engineKey]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key engineKey
	eng *Engine
}

// NewEngineCache creates a cache holding at most capacity live engines
// (capacity <= 0 means 4).
func NewEngineCache(capacity int) *EngineCache {
	if capacity <= 0 {
		capacity = 4
	}
	return &EngineCache{cap: capacity, lru: list.New(), m: make(map[engineKey]*list.Element)}
}

// Get returns a live engine for the shape, reusing a cached one when
// possible. The engine stays owned by the cache: do not Close it;
// Close the cache instead.
func (ec *EngineCache) Get(m, n, k, p int, cfg Config) (*Engine, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = CA3DMM
	}
	key := engineKey{m: m, n: n, k: k, p: p, cfg: cfg}
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if el, ok := ec.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.eng.mu.Lock()
		dead := ent.eng.closed || ent.eng.poison.Load() != nil
		ent.eng.mu.Unlock()
		if !dead {
			ec.lru.MoveToFront(el)
			ec.hits++
			cfg.Trace.Instant(0, "plan:cache-hit", fmt.Sprintf("engine %dx%dx%d p=%d", m, n, k, p))
			return ent.eng, nil
		}
		ec.lru.Remove(el)
		delete(ec.m, key)
		go ent.eng.Close()
	}
	ec.misses++
	cfg.Trace.Instant(0, "plan:cache-miss", fmt.Sprintf("engine %dx%dx%d p=%d", m, n, k, p))
	eng, err := NewEngine(m, n, k, p, cfg)
	if err != nil {
		return nil, err
	}
	ec.m[key] = ec.lru.PushFront(&cacheEntry{key: key, eng: eng})
	for ec.lru.Len() > ec.cap {
		old := ec.lru.Back()
		ent := old.Value.(*cacheEntry)
		ec.lru.Remove(old)
		delete(ec.m, ent.key)
		ent.eng.Close()
	}
	return eng, nil
}

// Stats reports the cache's cumulative hits and misses.
func (ec *EngineCache) Stats() (hits, misses int64) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.hits, ec.misses
}

// Close shuts down every cached engine and empties the cache. The
// first rank-failure error encountered, if any, is returned.
func (ec *EngineCache) Close() error {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	var first error
	for el := ec.lru.Front(); el != nil; el = el.Next() {
		if _, err := el.Value.(*cacheEntry).eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	ec.lru.Init()
	ec.m = make(map[engineKey]*list.Element)
	return first
}
