package spe

import (
	"fmt"
	"runtime/debug"
	"sync"

	"astream/internal/event"
)

// ChangelogPayload must be implemented by changelog markers flowing through
// the engine; the runtime uses the sequence number to deliver each changelog
// exactly once per instance even though every upstream sender forwards it.
type ChangelogPayload interface {
	ChangelogSeq() uint64
}

// SnapshotSink receives operator state snapshots cut by checkpoint barriers.
type SnapshotSink interface {
	OnSnapshot(op string, instance int, barrier uint64, state []byte)
}

// target is one downstream inbox reachable from an emitter. buf is the
// pending exchange batch for this edge; it is owned by the emitting
// goroutine and flushed on size or on any control broadcast.
type target struct {
	ch     chan message
	sender int
	port   int  // which input port of the receiver this edge feeds
	coded  bool // crosses cluster nodes under an installed edge codec
	buf    *tupleBatch
}

// consumer groups the targets for one downstream operator. self is the
// emitting instance's own index, used by Forward edges to route 1:1.
type consumer struct {
	mode    PartitionMode
	self    int
	targets []target
}

const (
	// exchangeFlushNanos bounds how long a partial exchange batch may sit
	// before the time-based flush ships it (1 ms).
	exchangeFlushNanos = 1_000_000
	// flushCheckEvery is the number of elements between deadline checks.
	flushCheckEvery = 16
)

// tupleBatch is one exchange batch: its tuples and the header the pool
// holds. It travels by pointer — from getBatch through an emitter's edge
// buffer and a channel message to the receiver, which hands it back to
// putBatch — so recycling a batch allocates nothing.
type tupleBatch struct {
	ts []event.Tuple
}

// tupleBatchPool recycles exchange batches between emitting and receiving
// goroutines; every batch in it is empty.
var tupleBatchPool sync.Pool

// getBatch returns an empty batch, reusing a pooled one when available.
func getBatch(n int) *tupleBatch {
	if v := tupleBatchPool.Get(); v != nil {
		return v.(*tupleBatch)
	}
	return &tupleBatch{ts: make([]event.Tuple, 0, n)}
}

// putBatch empties a batch and returns it to the pool.
func putBatch(b *tupleBatch) {
	b.ts = b.ts[:0]
	tupleBatchPool.Put(b)
}

// Emitter sends elements to all downstream consumers of an operator
// instance. Tuples are partitioned per consumer mode; control elements are
// broadcast. An Emitter is owned by its instance goroutine.
//
// A chained emitter (direct non-nil) is the fused-edge fast path: EmitTuple
// invokes the next chained logic's OnTuple directly — no channel, no batch
// buffer, no codec — and carries no consumers of its own.
//
// On an exchange, tuples accumulate in per-edge vectors of batchSize and
// travel as one channel operation per batch (Flink's network-buffer model);
// there is no per-tuple transport. Every control broadcast — watermark,
// changelog, barrier, EOS — flushes all pending batches first, so control
// elements can never overtake data on any edge and per-sender FIFO order is
// preserved exactly. Partial batches are additionally flushed when the
// owning instance goes idle (its inbox is empty) and, when a clock is
// injected, after exchangeFlushNanos of sitting pending — so staleness
// depends neither on batch fill nor on the watermark cadence.
type Emitter struct {
	consumers []consumer
	batchSize int         // tuples per exchange batch
	direct    *directLink // fused-edge fast path; nil for exchange emitters

	pending      int          // targets currently holding a partial batch
	nowNanos     func() int64 // nil disables the time-based flush
	pendingSince int64        // first deadline check that observed pending batches
	sinceCheck   int          // elements since the last deadline check

	// frame is the one buffer every coded flush and control element of this
	// emitter is encoded into and decoded from; the decode copies out
	// everything a tuple keeps, so nothing references it after the send.
	frame []byte

	// Failure surface: the first edge fault (codec round-trip failure,
	// injected drop) sticks here; the owning instance checks Err after each
	// message and unwinds through its supervisor. opName/instance identify
	// the emitting operator in failure reports and fault-hook callbacks.
	err      error
	opName   string
	instance int
	hook     FaultHook
}

// fail records the first edge fault; later faults are dropped (the instance
// is already doomed and the first cause is the one worth reporting).
func (e *Emitter) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Err returns the sticky edge fault, if any.
func (e *Emitter) Err() error { return e.err }

// directLink connects a chained emitter to the next logic in its fused
// chain, along with the emitter that logic's own emissions go to.
type directLink struct {
	logic Logic
	out   *Emitter
}

// NewChainedEmitter returns the direct-call emitter a fused chain hands to
// a member whose downstream is next: EmitTuple invokes next.OnTuple(0, t,
// downstream) synchronously. Exported for benchmarks and tests of the chain
// driver; Deploy builds these internally for every fused edge.
func NewChainedEmitter(next Logic, downstream *Emitter) *Emitter {
	return &Emitter{direct: &directLink{logic: next, out: downstream}}
}

// EmitTuple routes a tuple downstream.
func (e *Emitter) EmitTuple(t event.Tuple) {
	if e.direct != nil {
		e.direct.logic.OnTuple(0, t, e.direct.out)
		return
	}
	for ci := range e.consumers {
		c := &e.consumers[ci]
		switch c.mode {
		case Keyed:
			e.append(&c.targets[hashKey(t.Key, len(c.targets))], t)
		case Global:
			e.append(&c.targets[0], t)
		case Forward:
			e.append(&c.targets[c.self], t)
		}
	}
}

// append adds a tuple to one edge's pending batch, flushing when it fills.
func (e *Emitter) append(tg *target, t event.Tuple) {
	if tg.buf == nil {
		tg.buf = getBatch(e.batchSize)
		e.pending++
	}
	// appends within the batch buffer's pooled capacity; flushed before it would grow
	tg.buf.ts = append(tg.buf.ts, t)
	if len(tg.buf.ts) >= e.batchSize {
		e.flushTarget(tg)
	}
}

// flushTarget ships one edge's pending batch downstream. Coded edges pay
// the serialization cost batch-wise, amortizing the envelope over the whole
// vector: the batch is encoded into the emitter's frame and decoded from it
// into a fresh pooled batch, which is what travels on.
func (e *Emitter) flushTarget(tg *target) {
	if tg.buf == nil {
		return
	}
	batch := tg.buf
	tg.buf = nil
	e.pending--
	if e.pending == 0 {
		e.pendingSince = 0
	}
	if tg.coded {
		e.frame = BinaryCodec{}.AppendBatch(e.frame[:0], batch.ts)
		enc := e.frame
		if e.hook != nil {
			var bf BatchFault
			enc, bf = e.hook.OnBatch(e.opName, e.instance, enc)
			switch bf {
			case BatchDrop:
				// A dropped batch is lost data: fail the instance so the
				// barrier gate (completeBarrier) keeps the lossy epoch
				// from ever committing, and recovery re-delivers from
				// the log.
				putBatch(batch)
				e.fail(fmt.Errorf("spe: %s[%d] exchange batch dropped (injected link failure)", e.opName, e.instance))
				return
			case BatchDelay:
				// Hold the tuples one flush round; the next flush encodes
				// them again, so the hook never keeps the frame. Per-edge
				// order is preserved: broadcast re-flushes before sending
				// any control element on this edge.
				tg.buf = batch
				e.pending++
				return
			}
		}
		dec := getBatch(len(batch.ts))
		var err error
		dec.ts, err = BinaryCodec{}.decodeInto(dec.ts, enc)
		if err != nil {
			// Ship the still-intact original so downstream stays
			// consistent; the sticky error fails this instance and the
			// job manager decides between recovery and teardown.
			putBatch(dec)
			e.fail(fmt.Errorf("spe: edge codec batch round-trip failed: %v", err))
		} else {
			putBatch(batch)
			batch = dec
		}
	}
	tg.ch <- message{sender: tg.sender, port: tg.port, batch: batch}
}

// flushAll ships every pending batch, in fixed edge order (deterministic).
func (e *Emitter) flushAll() {
	if e.pending == 0 {
		return
	}
	for ci := range e.consumers {
		for ti := range e.consumers[ci].targets {
			e.flushTarget(&e.consumers[ci].targets[ti])
		}
	}
}

// maybeTimeFlush flushes pending batches once they have sat for
// exchangeFlushNanos, bounding staleness on low-rate edges independently of
// the watermark cadence. The clock is only consulted every flushCheckEvery
// elements, so the hot path pays an integer increment; the realized bound is
// therefore that interval plus up to two check intervals, which is what
// "low-rate edge" makes negligible. No-op without an injected clock.
func (e *Emitter) maybeTimeFlush() {
	if e.pending == 0 || e.nowNanos == nil {
		return
	}
	e.sinceCheck++
	if e.sinceCheck < flushCheckEvery {
		return
	}
	e.sinceCheck = 0
	now := e.nowNanos()
	if e.pendingSince == 0 {
		e.pendingSince = now
		return
	}
	if now-e.pendingSince >= exchangeFlushNanos {
		e.flushAll()
	}
}

// broadcast delivers a control element to every target of every consumer,
// flushing pending tuple batches first so the control element never
// overtakes data. A failed emitter forwards nothing: data may already be
// lost on an edge, and letting a barrier (or watermark) past the loss would
// commit an inconsistent epoch.
func (e *Emitter) broadcast(el event.Element) {
	e.flushAll()
	if e.pending > 0 {
		// An injected delay held a batch back; it must still precede any
		// control element on its edge.
		e.flushAll()
	}
	if e.err != nil {
		return
	}
	for ci := range e.consumers {
		for ti := range e.consumers[ci].targets {
			e.send(&e.consumers[ci].targets[ti], el)
		}
	}
}

// broadcastRaw delivers a control element without flushing and regardless of
// the sticky error — the teardown path, where EOS must reach downstream so
// the rest of the job can finish even though this instance is dead.
func (e *Emitter) broadcastRaw(el event.Element) {
	for ci := range e.consumers {
		for ti := range e.consumers[ci].targets {
			e.send(&e.consumers[ci].targets[ti], el)
		}
	}
}

// discardPending drops every pending batch buffer (teardown path).
func (e *Emitter) discardPending() {
	for ci := range e.consumers {
		for ti := range e.consumers[ci].targets {
			tg := &e.consumers[ci].targets[ti]
			if tg.buf != nil {
				putBatch(tg.buf)
				tg.buf = nil
			}
		}
	}
	e.pending = 0
}

// send delivers one control element on one edge.
func (e *Emitter) send(tg *target, el event.Element) {
	if tg.coded {
		// Pay the serialization cost a networked edge would: encode and
		// decode the element (the decoded copy is what travels on).
		e.frame = BinaryCodec{}.AppendControl(e.frame[:0], el)
		dec, err := BinaryCodec{}.DecodeControl(e.frame)
		if err != nil {
			// Deliver the intact original so control flow is never lost;
			// the sticky error still fails the instance.
			e.fail(fmt.Errorf("spe: edge codec round-trip failed: %v", err))
		} else {
			// Changelog payloads are control-plane pointers; reattach after
			// paying the envelope cost (the codec cannot reconstruct them).
			dec.Changelog = el.Changelog
			el = dec
		}
	}
	tg.ch <- message{sender: tg.sender, port: tg.port, elem: el}
}

// chainMember is one fused operator within an instance: its topology node
// (which names its snapshots), its logic, and the emitter that logic's
// callbacks receive — a direct-call link to the next member, or the real
// exchange emitter for the chain tail.
type chainMember struct {
	node  *Node
	logic Logic
	out   *Emitter
}

// instanceRT is the runtime state of one deployed instance: an operator
// chain of one or more fused logics sharing an inbox and a goroutine.
// Tuples enter members[0] and propagate by direct call; control elements
// traverse the chain in-line, member by member, so member j's emissions
// during a control callback reach member j+1's OnTuple before j+1's own
// callback runs — exactly the order an unfused deployment delivers.
type instanceRT struct {
	op       *Node // chain head (names the instance in diagnostics)
	instance int
	members  []chainMember
	inbox    chan message // nil for chains embedded in a source (see SourceContext)
	senders  int
	emitter  *Emitter // the chain tail's exchange emitter
	snapSink SnapshotSink
	failSink FailureSink // nil: failures re-panic (bare deployments stay fail-fast)
	hook     FaultHook   // nil in production

	wms        []event.Time // per-sender watermark
	done       []bool       // per-sender EOS
	doneCount  int
	combinedWM event.Time
	clSeq      uint64 // last delivered changelog

	// Barrier alignment.
	aligning  bool
	barrierID uint64
	blocked   []bool
	buffered  []message
}

func newInstanceRT(op *Node, instance int, members []chainMember, senders int, inboxCap int) *instanceRT {
	rt := &instanceRT{
		op:         op,
		instance:   instance,
		members:    members,
		inbox:      make(chan message, inboxCap),
		senders:    senders,
		wms:        make([]event.Time, senders),
		done:       make([]bool, senders),
		blocked:    make([]bool, senders),
		combinedWM: event.MinTime,
	}
	for i := range rt.wms {
		rt.wms[i] = event.MinTime
	}
	return rt
}

// runSupervised is the per-instance supervisor: the goroutine entry point
// Deploy starts (mutation row G1 spawns the loop without it). Any
// panic or propagated invariant violation in the main loop becomes a
// structured InstanceFailure, after which the instance keeps draining its
// inbox so upstream senders never block and downstream still observes EOS —
// one dead instance must not wedge or kill the rest of the job.
func (rt *instanceRT) runSupervised(wg *sync.WaitGroup) {
	defer wg.Done()
	f := rt.runCaptured()
	if f == nil {
		return
	}
	if rt.failSink == nil {
		// No supervisor installed: preserve the historical fail-fast
		// behavior for bare deployments.
		panic(f.Reason)
	}
	rt.failSink.OnInstanceFailure(*f)
	rt.drainDiscard()
}

// runCaptured runs the main loop, converting panics and propagated errors
// into a failure report.
func (rt *instanceRT) runCaptured() (f *InstanceFailure) {
	defer func() {
		if pv := recover(); pv != nil {
			f = &InstanceFailure{
				Op:       rt.op.name,
				Instance: rt.instance,
				Reason:   fmt.Sprint(pv),
				Panic:    pv,
				Stack:    debug.Stack(),
			}
		}
	}()
	if err := rt.run(); err != nil {
		return &InstanceFailure{Op: rt.op.name, Instance: rt.instance, Reason: err.Error()}
	}
	return nil
}

// drainDiscard consumes the inbox of a failed instance until every sender
// has delivered EOS, then forwards EOS downstream. Pending output is
// discarded: the failed epoch never commits, and recovery re-delivers its
// input from the checkpoint log.
func (rt *instanceRT) drainDiscard() {
	defer func() { _ = recover() }() // teardown must not re-panic
	for rt.doneCount < rt.senders {
		msg := <-rt.inbox
		if msg.batch != nil {
			putBatch(msg.batch)
			continue
		}
		if msg.elem.Kind == event.KindEOS && !rt.done[msg.sender] {
			rt.done[msg.sender] = true
			rt.doneCount++
		}
	}
	rt.emitter.discardPending()
	rt.emitter.broadcastRaw(event.EOS())
}

// run is the instance main loop: consume until every sender has sent EOS.
// Whenever the inbox runs dry the instance flushes its partial output
// batches before blocking, so downstream staleness under low input rates is
// bounded by idleness, not by batch fill. Runtime invariant violations and
// edge faults surface as the returned error.
func (rt *instanceRT) run() error {
	for rt.doneCount < rt.senders {
		var msg message
		select {
		case msg = <-rt.inbox:
		default:
			rt.emitter.flushAll()
			msg = <-rt.inbox
		}
		if err := rt.handle(msg); err != nil {
			return err
		}
		rt.emitter.maybeTimeFlush()
		if err := rt.emitter.Err(); err != nil {
			return err
		}
	}
	rt.finish()
	return rt.emitter.Err()
}

// finish drains the chain at end-of-stream: each member's OnEOS runs with
// its own emitter (so final emissions still traverse the rest of the
// chain), then EOS is broadcast downstream.
func (rt *instanceRT) finish() {
	for i := range rt.members {
		m := &rt.members[i]
		m.logic.OnEOS(m.out)
	}
	rt.emitter.broadcast(event.EOS())
}

func (rt *instanceRT) handle(msg message) error {
	if rt.aligning && rt.blocked[msg.sender] {
		// barrier alignment only: buffering happens while a checkpoint is in flight
		rt.buffered = append(rt.buffered, msg)
		return nil
	}
	if msg.batch != nil {
		head := &rt.members[0]
		ts := msg.batch.ts
		for i := range ts {
			if rt.hook != nil {
				rt.hook.BeforeTuple(rt.op.name, rt.instance)
			}
			head.logic.OnTuple(msg.port, ts[i], head.out)
		}
		putBatch(msg.batch)
		return nil
	}
	switch msg.elem.Kind {
	case event.KindWatermark:
		rt.onWatermark(msg.sender, msg.elem.Watermark)
	case event.KindChangelog:
		return rt.onChangelog(msg.elem)
	case event.KindBarrier:
		return rt.onBarrier(msg.sender, msg.elem.Barrier)
	case event.KindEOS:
		return rt.onEOS(msg.sender)
	}
	return nil
}

func (rt *instanceRT) onWatermark(sender int, wm event.Time) {
	if wm <= rt.wms[sender] {
		return
	}
	rt.wms[sender] = wm
	rt.advanceWatermark()
}

// advanceWatermark recomputes the combined watermark (min over live senders)
// and delivers it when it moved.
func (rt *instanceRT) advanceWatermark() {
	min := event.MaxTime
	live := false
	for i := range rt.wms {
		if rt.done[i] {
			continue
		}
		live = true
		if rt.wms[i] < min {
			min = rt.wms[i]
		}
	}
	if !live || min <= rt.combinedWM || min == event.MinTime {
		return
	}
	rt.combinedWM = min
	for i := range rt.members {
		m := &rt.members[i]
		m.logic.OnWatermark(min, m.out)
	}
	rt.emitter.broadcast(event.NewWatermark(min))
}

func (rt *instanceRT) onChangelog(el event.Element) error {
	payload, ok := el.Changelog.(ChangelogPayload)
	if !ok {
		return fmt.Errorf("spe: changelog payload %T does not implement ChangelogPayload", el.Changelog)
	}
	seq := payload.ChangelogSeq()
	if seq <= rt.clSeq {
		return nil // duplicate from another sender
	}
	if seq != rt.clSeq+1 {
		return fmt.Errorf("spe: %s[%d] changelog gap: have %d, got %d", rt.op.name, rt.instance, rt.clSeq, seq)
	}
	rt.clSeq = seq
	for i := range rt.members {
		m := &rt.members[i]
		m.logic.OnChangelog(el.Changelog, el.Watermark, m.out)
	}
	rt.emitter.broadcast(el)
	return nil
}

func (rt *instanceRT) onBarrier(sender int, id uint64) error {
	if !rt.aligning {
		rt.aligning = true
		rt.barrierID = id
		for i := range rt.blocked {
			rt.blocked[i] = false
		}
	}
	if id != rt.barrierID {
		return fmt.Errorf("spe: %s[%d] overlapping barriers %d and %d", rt.op.name, rt.instance, rt.barrierID, id)
	}
	rt.blocked[sender] = true
	// Aligned when every live sender delivered the barrier.
	for i := range rt.blocked {
		if !rt.blocked[i] && !rt.done[i] {
			return nil
		}
	}
	return rt.completeBarrier(id)
}

// completeBarrier runs after input alignment: each chain member snapshots
// under its own node name (a fused chain still produces one snapshot per
// operator, so checkpoint accounting is fusion-agnostic), the barrier is
// forwarded, and buffered input replays. A failed instance stops here
// without snapshotting: data may already be lost on an output edge, and a
// completed checkpoint at this barrier would commit that loss.
func (rt *instanceRT) completeBarrier(id uint64) error {
	if err := rt.emitter.Err(); err != nil {
		return err
	}
	if rt.hook != nil {
		rt.hook.AtBarrier(rt.op.name, rt.instance, id)
	}
	for i := range rt.members {
		m := &rt.members[i]
		state := m.logic.OnBarrier(id, m.out)
		if rt.snapSink != nil {
			rt.snapSink.OnSnapshot(m.node.name, rt.instance, id, state)
		}
	}
	rt.emitter.broadcast(event.NewBarrier(id))
	rt.aligning = false
	buf := rt.buffered
	rt.buffered = nil
	for _, m := range buf {
		if err := rt.handle(m); err != nil {
			return err
		}
	}
	return nil
}

func (rt *instanceRT) onEOS(sender int) error {
	if rt.done[sender] {
		return nil
	}
	rt.done[sender] = true
	rt.doneCount++
	// A finished sender no longer constrains the watermark; and if it was
	// the last holdout of a barrier alignment, complete the alignment.
	if rt.aligning && !rt.blocked[sender] {
		if err := rt.onBarrierSenderGone(); err != nil {
			return err
		}
	}
	rt.advanceWatermark()
	return nil
}

// onBarrierSenderGone re-checks barrier alignment after a sender EOS'd
// without delivering the pending barrier.
func (rt *instanceRT) onBarrierSenderGone() error {
	for i := range rt.blocked {
		if !rt.blocked[i] && !rt.done[i] {
			return nil
		}
	}
	return rt.completeBarrier(rt.barrierID)
}

// sourceClose ends a chain embedded in a source instance: the source is the
// instance's only sender and there is no goroutine to unwind, so EOS and
// the end-of-stream drain run in-line on the caller.
func (rt *instanceRT) sourceClose() error {
	if err := rt.onEOS(0); err != nil {
		return err
	}
	rt.finish()
	return rt.emitter.Err()
}
