package spe

import (
	"fmt"
	"runtime/debug"
	"sync"

	"astream/internal/event"
)

// Job is a deployed topology: one goroutine per operator instance, channels
// wired according to the DAG. Sources are fed through SourceContexts; the job
// finishes when every source is closed and all elements have drained.
type Job struct {
	topo     *Topology
	insts    map[*Node][]*instanceRT
	sources  map[*Node][]*SourceContext
	wg       sync.WaitGroup
	deployed bool
}

// DeployOption configures a deployment.
type DeployOption func(*deployConfig)

type deployConfig struct {
	codec    bool
	snapSink SnapshotSink
	failSink FailureSink
	hook     FaultHook
}

// WithEdgeCodec charges the codec on every batch and control element that
// crosses cluster node boundaries (see Node.AssignNodes): encode then
// decode, the serialization a networked deployment pays.
func WithEdgeCodec(BinaryCodec) DeployOption {
	return func(d *deployConfig) { d.codec = true }
}

// WithSnapshotSink installs the receiver for checkpoint snapshots.
func WithSnapshotSink(s SnapshotSink) DeployOption {
	return func(d *deployConfig) { d.snapSink = s }
}

// WithFailureSink installs the receiver for instance failures. Without one,
// instance panics and invariant violations crash the process (fail-fast);
// with one, they are reported and the job keeps draining.
func WithFailureSink(s FailureSink) DeployOption {
	return func(d *deployConfig) { d.failSink = s }
}

// WithFaultHook installs a deterministic fault-injection hook on every
// instance and exchange emitter (tests only; nil in production).
func WithFaultHook(h FaultHook) DeployOption {
	return func(d *deployConfig) { d.hook = h }
}

// Deploy validates the topology, plans operator chains, builds every
// instance, wires the exchanges, and starts the goroutines. Maximal runs of
// fusable forward edges (see Topology.chainNext) collapse into one instance
// each: the chained logics share a goroutine and pass tuples by direct call,
// so fused edges have no channel, no batch buffer, and no codec. A chain
// headed by a source runs embedded in the source's own goroutine (the one
// calling SourceContext). The returned Job is running and waiting for
// source input.
func Deploy(t *Topology, opts ...DeployOption) (*Job, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var cfg deployConfig
	for _, o := range opts {
		o(&cfg)
	}
	j := &Job{
		topo:    t,
		insts:   make(map[*Node][]*instanceRT),
		sources: make(map[*Node][]*SourceContext),
	}

	next := t.chainNext()
	prev := make(map[*Node]*Node, len(next))
	for _, n := range t.nodes {
		if d := next[n]; d != nil {
			prev[d] = n
		}
	}
	// chainFrom lists the fused run deployed as one instance, head first.
	chainFrom := func(head *Node) []*Node {
		var run []*Node
		for m := head; m != nil; m = next[m] {
			run = append(run, m)
		}
		return run
	}
	newMembers := func(run []*Node, i int) []chainMember {
		members := make([]chainMember, len(run))
		for k, m := range run {
			members[k] = chainMember{node: m, logic: m.newLogic(i)}
		}
		return members
	}

	// Build the instances that own a goroutine and an inbox: operators that
	// are not fused into an upstream instance. Sender counting is unchanged
	// — a chain head's inputs are always real exchange edges.
	for _, n := range t.nodes {
		if n.isSource || prev[n] != nil {
			continue
		}
		senders := 0
		for _, in := range n.inputs {
			senders += in.from.parallelism
		}
		run := chainFrom(n)
		rts := make([]*instanceRT, n.parallelism)
		for i := 0; i < n.parallelism; i++ {
			rt := newInstanceRT(n, i, newMembers(run, i), senders, t.channelCap)
			rt.snapSink = cfg.snapSink
			rt.failSink = cfg.failSink
			rt.hook = cfg.hook
			rts[i] = rt
		}
		j.insts[n] = rts
	}

	// Chains headed by a source have no inbox at all: the source instance
	// drives the chain in-line through its SourceContext, which acts as the
	// single sender.
	embedded := map[*Node][]*instanceRT{}
	for _, n := range t.nodes {
		if !n.isSource || next[n] == nil {
			continue
		}
		run := chainFrom(next[n])
		rts := make([]*instanceRT, n.parallelism)
		for i := 0; i < n.parallelism; i++ {
			rt := newInstanceRT(run[0], i, newMembers(run, i), 1, 0)
			rt.inbox = nil
			rt.snapSink = cfg.snapSink
			rt.failSink = cfg.failSink
			rt.hook = cfg.hook
			rts[i] = rt
		}
		embedded[n] = rts
	}

	// Build emitters. Sender IDs within an inbox are assigned in input-port
	// order, then upstream-instance order — the same enumeration used for
	// the sender count above.
	// senderBase[node][port] = first sender id of that port.
	senderBase := map[*Node][]int{}
	for _, n := range t.nodes {
		if n.isSource {
			continue
		}
		bases := make([]int, len(n.inputs))
		acc := 0
		for pi, in := range n.inputs {
			bases[pi] = acc
			acc += in.from.parallelism
		}
		senderBase[n] = bases
	}

	// emitterFor builds the exchange emitter for an unfused out-edge set.
	// Every consumer it finds is a deployed chain head: a fused consumer's
	// only input is its fused edge, and emitterFor is never called for the
	// upstream of a fused edge (that upstream is inside a chain).
	emitterFor := func(u *Node, ui int) *Emitter {
		em := &Emitter{
			batchSize: t.exchangeBatch,
			nowNanos:  t.nowNanos,
			opName:    u.name,
			instance:  ui,
			hook:      cfg.hook,
		}
		for _, d := range t.nodes {
			for pi, in := range d.inputs {
				if in.from != u {
					continue
				}
				c := consumer{mode: in.mode, self: ui}
				for di := 0; di < d.parallelism; di++ {
					c.targets = append(c.targets, target{
						ch:     j.insts[d][di].inbox,
						sender: senderBase[d][pi] + ui,
						port:   pi,
						coded:  cfg.codec && u.nodeFor(ui) != d.nodeFor(di),
					})
				}
				em.consumers = append(em.consumers, c)
			}
		}
		return em
	}

	// wireChain gives the chain tail its exchange emitter and links every
	// earlier member to its successor by direct call.
	wireChain := func(rt *instanceRT, i int) {
		last := len(rt.members) - 1
		rt.emitter = emitterFor(rt.members[last].node, i)
		rt.members[last].out = rt.emitter
		for k := last - 1; k >= 0; k-- {
			rt.members[k].out = NewChainedEmitter(rt.members[k+1].logic, rt.members[k+1].out)
		}
	}

	for _, n := range t.nodes {
		if n.isSource {
			ctxs := make([]*SourceContext, n.parallelism)
			for i := 0; i < n.parallelism; i++ {
				if next[n] != nil {
					rt := embedded[n][i]
					wireChain(rt, i)
					ctxs[i] = &SourceContext{chain: rt, opName: rt.op.name, instance: i, failSink: cfg.failSink}
				} else {
					ctxs[i] = &SourceContext{emitter: emitterFor(n, i), opName: n.name, instance: i, failSink: cfg.failSink}
				}
			}
			j.sources[n] = ctxs
			continue
		}
		if prev[n] != nil {
			continue // fused into an upstream instance
		}
		for i, rt := range j.insts[n] {
			wireChain(rt, i)
		}
	}

	// Start instance goroutines (embedded chains run on their source's
	// caller and need none).
	for _, n := range t.nodes {
		if n.isSource || prev[n] != nil {
			continue
		}
		for _, rt := range j.insts[n] {
			j.wg.Add(1)
			go rt.runSupervised(&j.wg)
		}
	}
	j.deployed = true
	return j, nil
}

// PrimeChangelogSeq seeds every instance's changelog dedup counter, so a job
// recovered from a checkpoint accepts its first replayed changelog at seq+1
// instead of tripping the gap invariant. Must be called before any input is
// pushed: the instance goroutines only read the counter after their first
// inbox receive, so the channel send orders this write safely.
func (j *Job) PrimeChangelogSeq(seq uint64) {
	for _, rts := range j.insts {
		for _, rt := range rts {
			rt.clSeq = seq
		}
	}
	for _, ctxs := range j.sources {
		for _, c := range ctxs {
			if c.chain != nil {
				c.chain.clSeq = seq
			}
		}
	}
}

// SourceContext returns the push interface for one source instance.
func (j *Job) SourceContext(n *Node, instance int) (*SourceContext, error) {
	ctxs, ok := j.sources[n]
	if !ok {
		return nil, fmt.Errorf("spe: %q is not a source of this job", n.name)
	}
	if instance < 0 || instance >= len(ctxs) {
		return nil, fmt.Errorf("spe: source %q has no instance %d", n.name, instance)
	}
	return ctxs[instance], nil
}

// CloseAllSources closes every source instance (idempotent), letting the job
// drain to completion.
func (j *Job) CloseAllSources() {
	for _, ctxs := range j.sources {
		for _, c := range ctxs {
			c.Close()
		}
	}
}

// Wait blocks until all operator instances have finished (every source
// closed and every element drained).
func (j *Job) Wait() {
	j.wg.Wait()
}

// Stop closes all sources and waits for the drain.
func (j *Job) Stop() {
	j.CloseAllSources()
	j.Wait()
}

// SourceContext pushes elements into the running job on behalf of one source
// instance. A SourceContext must be used by a single goroutine. When the
// source heads a fused chain, that chain runs embedded here: every emission
// drives the chained logics synchronously on the calling goroutine, and the
// chain tail's exchange emitter is the first channel hop.
//
// An embedded chain has no goroutine of its own, so the SourceContext is its
// supervisor: a panic in a chained logic (or an edge fault on the tail
// emitter) marks the context failed and is reported to the failure sink;
// further emissions are discarded and Close still propagates EOS so the rest
// of the job drains.
type SourceContext struct {
	emitter  *Emitter    // exchange emitter (nil when the source heads a chain)
	chain    *instanceRT // embedded chain driven in-line (nil otherwise)
	closed   bool
	failed   bool
	opName   string
	instance int
	failSink FailureSink
}

// out returns the exchange emitter this context ultimately feeds.
func (s *SourceContext) out() *Emitter {
	if s.chain != nil {
		return s.chain.emitter
	}
	return s.emitter
}

// guardSupervised converts a panic unwinding out of an embedded chain into
// an InstanceFailure (deferred around every emission).
func (s *SourceContext) guardSupervised() {
	pv := recover()
	if pv == nil {
		return
	}
	if s.failSink == nil {
		panic(pv) // no supervisor installed: stay fail-fast
	}
	s.failed = true
	s.failSink.OnInstanceFailure(InstanceFailure{
		Op:       s.opName,
		Instance: s.instance,
		Reason:   fmt.Sprint(pv),
		Panic:    pv,
		Stack:    debug.Stack(),
	})
}

// failWith reports a propagated (non-panic) failure once.
func (s *SourceContext) failWith(err error) {
	if err == nil || s.failed {
		return
	}
	if s.failSink == nil {
		panic(err.Error())
	}
	s.failed = true
	s.failSink.OnInstanceFailure(InstanceFailure{Op: s.opName, Instance: s.instance, Reason: err.Error()})
}

// EmitTuple pushes a data tuple.
func (s *SourceContext) EmitTuple(t event.Tuple) {
	if s.failed {
		return
	}
	defer s.guardSupervised()
	if s.chain != nil {
		if s.chain.hook != nil {
			s.chain.hook.BeforeTuple(s.chain.op.name, s.chain.instance)
		}
		head := &s.chain.members[0]
		head.logic.OnTuple(0, t, head.out)
		s.chain.emitter.maybeTimeFlush()
	} else {
		s.emitter.EmitTuple(t)
		s.emitter.maybeTimeFlush()
	}
	s.failWith(s.out().Err())
}

// EmitWatermark asserts no later tuple from this source will have an
// event-time ≤ wm.
func (s *SourceContext) EmitWatermark(wm event.Time) {
	if s.failed {
		return
	}
	defer s.guardSupervised()
	if s.chain != nil {
		s.chain.onWatermark(0, wm)
	} else {
		s.emitter.broadcast(event.NewWatermark(wm))
	}
	s.failWith(s.out().Err())
}

// EmitChangelog weaves a changelog marker into the stream at event-time at.
// The payload must implement ChangelogPayload. With a parallel source, every
// instance must emit every changelog (the runtime deduplicates downstream).
func (s *SourceContext) EmitChangelog(payload ChangelogPayload, at event.Time) {
	if s.failed {
		return
	}
	defer s.guardSupervised()
	if s.chain != nil {
		s.failWith(s.chain.onChangelog(event.NewChangelog(payload, at)))
	} else {
		s.emitter.broadcast(event.NewChangelog(payload, at))
	}
	s.failWith(s.out().Err())
}

// EmitBarrier injects a checkpoint barrier.
func (s *SourceContext) EmitBarrier(id uint64) {
	if s.failed {
		return
	}
	defer s.guardSupervised()
	if s.chain != nil {
		s.failWith(s.chain.onBarrier(0, id))
	} else {
		s.emitter.broadcast(event.NewBarrier(id))
	}
	s.failWith(s.out().Err())
}

// Close signals end of stream. Further emissions are a programming error.
// On a failed context the chain drain is skipped (its state is already
// suspect); EOS still reaches downstream so the job can finish.
func (s *SourceContext) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.failed {
		func() {
			defer s.guardSupervised()
			if s.chain != nil {
				s.failWith(s.chain.sourceClose())
			} else {
				s.emitter.broadcast(event.EOS())
			}
		}()
		if !s.failed {
			return
		}
	}
	// Failed before or during close: drop pending output and force EOS out
	// (downstream deduplicates a second EOS from the same sender).
	em := s.out()
	em.discardPending()
	em.broadcastRaw(event.EOS())
}
