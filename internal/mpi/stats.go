package mpi

// Stats accumulates one rank's communication activity. Counters are
// maintained by the rank's own goroutine; read them only after Run
// returns (via Report).
type Stats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64

	// PerOp breaks down sent traffic by operation kind ("p2p",
	// "allgather", "reduce_scatter", ...). Used to reproduce the
	// paper's runtime-breakdown figure (Fig. 5).
	PerOp map[string]OpStats

	// CurAlloc/PeakAlloc track matrix-buffer bytes registered via
	// Comm.RecordAlloc for the memory-usage comparison (Table I).
	CurAlloc  int64
	PeakAlloc int64

	// Injected lists every fault the run's FaultPlan fired on this
	// rank, in firing order; chaos tests assert against it.
	Injected []Injection

	// Net aggregates the rank's reliable-transport and failure-detector
	// activity (folded in from the transport's accumulators when Run
	// finishes; all zero on the raw fabric).
	Net NetStats

	// CkptCorrupt counts checkpoint blocks this rank rejected at
	// Restore because their checksum did not match (treated as
	// missing, never restored as garbage).
	CkptCorrupt int64

	// CkptReleased counts superseded checkpoint blocks this rank
	// garbage-collected from the store via ClearCheckpoint, so a long
	// retry chain's epoch-scoped checkpoints do not accumulate
	// unboundedly.
	CkptReleased int64

	// SDCDetected/SDCCorrected/SDCRecomputed count the ABFT guard's
	// checksum verification outcomes on this rank: detections of
	// silent data corruption, single-element in-place corrections, and
	// surgical tile recomputes (see internal/abft).
	SDCDetected   int64
	SDCCorrected  int64
	SDCRecomputed int64

	// Promotions counts the times this rank was promoted from the
	// spare pool into a compute slot by a Replace epoch.
	Promotions int64

	// SparesLeft is the size of the hot-spare pool remaining when the
	// rank's resilient execution returned (set by the recovery ladder;
	// meaningful on survivors of the final epoch).
	SparesLeft int64
}

// NetStats is one rank's slice of the reliable-transport and
// heartbeat-detector activity of a run.
type NetStats struct {
	// Retransmits counts payload retransmissions fired because an ack
	// did not arrive within the retransmit timeout (sender side).
	Retransmits int64
	// DupDrops counts duplicate deliveries suppressed by sequence
	// numbers — retransmitted copies that raced the original, or
	// injected FaultDuplicate copies (receiver side).
	DupDrops int64
	// Lost counts messages the raw fabric abandoned with no delivery:
	// delayed payloads that timed out against a full link, or
	// unsequenced traffic black-holed by a partition.
	Lost int64
	// Unreachable counts retransmit-budget exhaustions against a peer
	// that never acknowledged.
	Unreachable int64
	// Suspects counts hb:suspect classifications made by this rank's
	// prober (stale heartbeats or straggler-grade probe RTT).
	Suspects int64
	// Confirms counts peers this rank's prober confirmed dead and
	// fenced out of the run.
	Confirms int64
	// Clears counts suspicions this rank retracted without a fence: a
	// straggler's probe RTT recovered, a partition healed before the
	// confirm threshold, or the suspected peer finished the run
	// normally (the suspect ≠ fence contract).
	Clears int64
	// Rejoins counts fenced ranks this rank's prober re-admitted into
	// the spare pool after the partition that isolated them healed.
	Rejoins int64
}

// OpStats is the per-operation slice of a rank's traffic, split by
// direction: Bytes/Msgs count sent traffic, RecvBytes/RecvMsgs count
// received traffic. Across the ranks of a completed run the two sides
// balance — every payload sent under an op is received under the same
// op — which is what lets the Fig. 5 breakdown attribute volumes
// without double counting.
type OpStats struct {
	Bytes     int64 // bytes sent
	Msgs      int64 // messages sent
	RecvBytes int64
	RecvMsgs  int64
	Calls     int64

	// Retrans counts retransmissions of this op's payloads by the
	// reliable transport; DupDrops counts duplicates of this op's
	// payloads suppressed at the receiver. Both are zero on the raw
	// fabric.
	Retrans  int64
	DupDrops int64
}

func (s *Stats) addOp(op string, bytes int64) {
	if s.PerOp == nil {
		s.PerOp = make(map[string]OpStats)
	}
	e := s.PerOp[op]
	e.Bytes += bytes
	e.Msgs++
	s.PerOp[op] = e
}

func (s *Stats) addOpRecv(op string, bytes int64) {
	if s.PerOp == nil {
		s.PerOp = make(map[string]OpStats)
	}
	e := s.PerOp[op]
	e.RecvBytes += bytes
	e.RecvMsgs++
	s.PerOp[op] = e
}

func (s *Stats) addInjection(rec Injection) {
	s.Injected = append(s.Injected, rec)
}

// fold merges the private Stats shard of a completed nonblocking
// operation into s. The shard was written only by the operation's
// background goroutine, and fold runs on the owning rank's goroutine at
// Wait (after the result handoff established happens-before), so the
// per-rank single-writer discipline holds throughout. Only the fields a
// collective body can touch — traffic counters, per-op rows, fired
// injections — are merged; allocation and checkpoint tracking stay with
// the owner.
func (s *Stats) fold(d *Stats) {
	s.BytesSent += d.BytesSent
	s.BytesRecv += d.BytesRecv
	s.MsgsSent += d.MsgsSent
	s.MsgsRecv += d.MsgsRecv
	for op, e := range d.PerOp {
		if s.PerOp == nil {
			s.PerOp = make(map[string]OpStats)
		}
		t := s.PerOp[op]
		t.Bytes += e.Bytes
		t.Msgs += e.Msgs
		t.RecvBytes += e.RecvBytes
		t.RecvMsgs += e.RecvMsgs
		t.Calls += e.Calls
		t.Retrans += e.Retrans
		t.DupDrops += e.DupDrops
		s.PerOp[op] = t
	}
	s.Injected = append(s.Injected, d.Injected...)
}

func (s *Stats) addCall(op string) {
	if s.PerOp == nil {
		s.PerOp = make(map[string]OpStats)
	}
	e := s.PerOp[op]
	e.Calls++
	s.PerOp[op] = e
}
