package spe

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astream/internal/event"
)

func passThrough(*event.Tuple) bool { return true }

// TestChainFusionNoChannelHop proves fused edges deliver tuples without any
// channel hop: a fully forward topology collapses into the source's own
// goroutine, the built Job contains no intermediate exchange instances at
// all, and a tuple is observable at the sink synchronously — before any
// other goroutine could have run a channel receive.
func TestChainFusionNoChannelHop(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	a := topo.AddOperator("stage-a", 1, NewMapLogic(func(tu *event.Tuple) bool {
		tu.Fields[0]++
		return true
	}), ForwardInput(src))
	b := topo.AddOperator("stage-b", 1, NewMapLogic(func(tu *event.Tuple) bool {
		tu.Fields[0] *= 10
		return true
	}), ForwardInput(a))
	var col collector
	sink := topo.AddOperator("sink", 1, col.sinkFactory(), ForwardInput(b))

	chains := topo.Chains()
	if len(chains) != 1 || strings.Join(chains[0], ">") != "src>stage-a>stage-b>sink" {
		t.Fatalf("Chains() = %v, want one chain src>stage-a>stage-b>sink", chains)
	}

	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b, sink} {
		if _, ok := job.insts[n]; ok {
			t.Fatalf("%q was deployed as its own instance; fused chains must have no exchange edge", n.name)
		}
	}
	sc, err := job.SourceContext(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc.EmitTuple(tupleAt(7, 5))
	// Synchronous delivery: the tuple must already be at the sink, with both
	// chained transformations applied in order ((0+1)*10).
	if len(col.tuples) != 1 || col.tuples[0].Fields[0] != 10 {
		t.Fatalf("tuple not delivered synchronously through the chain: %+v", col.tuples)
	}
	sc.EmitWatermark(42)
	if len(col.wms) != 1 || col.wms[0] != 42 {
		t.Fatalf("watermark not delivered through embedded chain: %v", col.wms)
	}
	job.Stop()
	if col.eos != 1 {
		t.Fatalf("eos = %d, want 1", col.eos)
	}
}

// TestEmbeddedChainPanicBecomesFailure pins the supervisor of a chain that
// runs embedded in its source: a panicking logic becomes one InstanceFailure
// for the failure sink, not a panic out of EmitTuple, the source discards
// what it is given afterwards, and closing it still sends EOS downstream,
// so the job stops.
func TestEmbeddedChainPanicBecomesFailure(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	stage := topo.AddOperator("stage", 1, NewMapLogic(func(tu *event.Tuple) bool {
		if tu.Key == 1 {
			panic("injected")
		}
		return true
	}), ForwardInput(src))
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(stage))
	var failures []InstanceFailure
	job, err := Deploy(topo, WithFailureSink(FailureFunc(func(f InstanceFailure) { failures = append(failures, f) })))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := job.SourceContext(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		sc.EmitTuple(tupleAt(i, event.Time(i)))
	}
	stopWithin(t, job, "the failed source never sent EOS")
	if len(failures) != 1 || failures[0].Panic != "injected" {
		t.Fatalf("failures = %+v, want one carrying the injected panic", failures)
	}
	if col.eos != 1 {
		t.Fatalf("%d EOS at the sink, want 1", col.eos)
	}
}

// stopWithin stops the job, failing the test if that takes more than ten
// seconds: some instance never saw EOS from all of its senders.
func stopWithin(t *testing.T, job *Job, why string) {
	t.Helper()
	stopped := make(chan struct{})
	go func() {
		job.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the job did not stop: " + why)
	}
}

// TestFailedInstanceStillEndsDownstream pins the supervisor's teardown: an
// instance whose logic panics keeps draining its inbox and, once its senders
// are done, forwards EOS, so its downstream instance ends and the job stops.
func TestFailedInstanceStillEndsDownstream(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	boom := topo.AddOperator("boom", 1, NewMapLogic(func(tu *event.Tuple) bool {
		if tu.Key == 1 {
			panic("injected")
		}
		return true
	}), KeyedInput(src))
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(boom))
	var failures atomic.Int32
	job, err := Deploy(topo, WithFailureSink(FailureFunc(func(InstanceFailure) { failures.Add(1) })))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := job.SourceContext(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		sc.EmitTuple(tupleAt(i, event.Time(i)))
	}
	stopWithin(t, job, "the failed instance never forwarded EOS")
	if failures.Load() != 1 || col.eos != 1 {
		t.Fatalf("%d failures and %d EOS at the sink, want 1 and 1", failures.Load(), col.eos)
	}
}

// TestChainOperatorHeadedFusion fuses a forward edge between two parallel
// operators downstream of a keyed shuffle: the pair shares instances (the
// downstream operator has none of its own) and results flow end to end.
func TestChainOperatorHeadedFusion(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	a := topo.AddOperator("a", 2, NewMapLogic(func(tu *event.Tuple) bool {
		tu.Fields[0]++
		return true
	}), KeyedInput(src))
	var col collector
	b := topo.AddOperator("b", 2, col.sinkFactory(), ForwardInput(a))

	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := job.insts[b]; ok {
		t.Fatal("fused operator b must not own instances")
	}
	rts, ok := job.insts[a]
	if !ok || len(rts) != 2 {
		t.Fatalf("chain head a must own the 2 instances, got %v", rts)
	}
	for i, rt := range rts {
		if len(rt.members) != 2 || rt.members[0].node != a || rt.members[1].node != b {
			t.Fatalf("instance %d members wrong: %+v", i, rt.members)
		}
	}
	sc, _ := job.SourceContext(src, 0)
	for i := int64(0); i < 100; i++ {
		sc.EmitTuple(tupleAt(i, event.Time(i)))
	}
	job.Stop()
	if len(col.tuples) != 100 {
		t.Fatalf("sink got %d tuples, want 100", len(col.tuples))
	}
	for _, tu := range col.tuples {
		if tu.Fields[0] != 1 {
			t.Fatalf("chained map not applied: %+v", tu)
		}
	}
}

// TestForwardMultiConsumerFallsBackToExchange: an upstream with a forward
// consumer plus another consumer cannot be fused, but the forward edge still
// routes instance i → instance i over a real exchange.
func TestForwardMultiConsumerFallsBackToExchange(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	var mu sync.Mutex
	perInst := make([]int, 2)
	fwd := topo.AddOperator("fwd", 2, func(inst int) Logic {
		return &SinkLogic{Tuple: func(event.Tuple) {
			mu.Lock()
			perInst[inst]++
			mu.Unlock()
		}}
	}, ForwardInput(src))
	var col collector
	topo.AddOperator("other", 1, col.sinkFactory(), GlobalInput(src))

	if got := topo.Chains(); len(got) != 0 {
		t.Fatalf("multi-consumer upstream must not fuse, got chains %v", got)
	}
	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := job.insts[fwd]; !ok {
		t.Fatal("unfused forward consumer must own instances (exchange fallback)")
	}
	// Only source instance 0 emits: forward routing must deliver everything
	// to fwd instance 0 regardless of key.
	sc0, _ := job.SourceContext(src, 0)
	for i := int64(0); i < 40; i++ {
		sc0.EmitTuple(tupleAt(i, event.Time(i)))
	}
	job.Stop()
	if perInst[0] != 40 || perInst[1] != 0 {
		t.Fatalf("forward exchange routing = %v, want [40 0]", perInst)
	}
	if len(col.tuples) != 40 {
		t.Fatalf("other consumer got %d tuples, want 40", len(col.tuples))
	}
}

// TestForwardChainNeverSpansNodes: co-location is a fusion requirement; a
// forward edge whose instance pairs land on different cluster nodes falls
// back to a (cross-node, codec-paying) exchange.
func TestForwardChainNeverSpansNodes(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2) // unassigned: both instances on node 0
	var col collector
	sink := topo.AddOperator("sink", 2, col.sinkFactory(), ForwardInput(src))
	sink.AssignNodes(2) // instance 1 on node 1 — pair (1,1) not co-located

	if got := topo.Chains(); len(got) != 0 {
		t.Fatalf("cross-node forward edge must not fuse, got %v", got)
	}
	job, err := Deploy(topo, WithEdgeCodec(BinaryCodec{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sc, _ := job.SourceContext(src, i)
		for k := int64(0); k < 25; k++ {
			sc.EmitTuple(tupleAt(k, event.Time(k)))
		}
	}
	job.Stop()
	if len(col.tuples) != 50 {
		t.Fatalf("got %d tuples over unfused forward edges, want 50", len(col.tuples))
	}
}

func TestValidateForwardErrors(t *testing.T) {
	// Parallelism mismatch on a forward edge.
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	topo.AddOperator("bad", 3, NewMapLogic(passThrough), ForwardInput(src))
	if _, err := Deploy(topo); err == nil || !strings.Contains(err.Error(), "equal parallelism") {
		t.Fatalf("forward parallelism mismatch must fail deploy, got %v", err)
	}

	// A forward edge into a multi-input operator (chain spanning a keyed
	// input): the consumer's other port would bypass the chain.
	topo2 := NewTopology()
	a := topo2.AddSource("a", 1)
	b := topo2.AddSource("b", 1)
	topo2.AddOperator("join", 1, NewMapLogic(passThrough), ForwardInput(a), KeyedInput(b))
	if _, err := Deploy(topo2); err == nil || !strings.Contains(err.Error(), "only input") {
		t.Fatalf("forward edge with sibling inputs must fail deploy, got %v", err)
	}
}

// emitOnWM emits a marker tuple from inside OnWatermark, to probe the
// control-element traversal order through a fused chain.
type emitOnWM struct {
	BaseLogic
}

func (emitOnWM) OnTuple(_ int, t event.Tuple, out *Emitter) { out.EmitTuple(t) }
func (emitOnWM) OnWatermark(wm event.Time, out *Emitter) {
	out.EmitTuple(tupleAt(-int64(wm), wm))
}

// TestChainControlOrdering: a chained member's emissions during a control
// callback must reach the next member before that member's own control
// callback — the same order an unfused deployment delivers (flush before
// control broadcast).
func TestChainControlOrdering(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	a := topo.AddOperator("a", 1, func(int) Logic { return emitOnWM{} }, ForwardInput(src))
	lg := &orderLog{}
	topo.AddOperator("b", 1, func(int) Logic { return lg }, ForwardInput(a))

	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := job.SourceContext(src, 0)
	sc.EmitTuple(tupleAt(1, 1))
	sc.EmitTuple(tupleAt(2, 2))
	sc.EmitWatermark(10)
	sc.EmitChangelog(&testChangelog{1}, 11)
	sc.EmitBarrier(5)
	job.Stop()

	want := []string{"t1", "t2", "t-10", "wm10", "cl11", "b5", "eos"}
	got := lg.snapshot()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("fused control ordering = %v, want %v", got, want)
	}
}

// TestChainBarrierSnapshotsPerMember: fusion must not change checkpoint
// accounting — every chained operator still snapshots under its own name.
func TestChainBarrierSnapshotsPerMember(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	a := topo.AddOperator("a", 1, NewMapLogic(passThrough), ForwardInput(src))
	topo.AddOperator("b", 1, NewMapLogic(passThrough), ForwardInput(a))
	store := &snapStore{}
	job, err := Deploy(topo, WithSnapshotSink(store))
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := job.SourceContext(src, 0)
	sc.EmitBarrier(3)
	job.Stop()
	store.mu.Lock()
	got := strings.Join(store.snaps, ",")
	store.mu.Unlock()
	if got != "a,b" {
		t.Fatalf("snapshots = %q, want per-member a,b in chain order", got)
	}
}

// TestTimeFlushShipsStalePartialBatch: with an injected clock, a partial
// batch stuck behind an edge that stopped filling is shipped once
// exchangeFlushNanos pass — no watermark or EOS needed.
func TestTimeFlushShipsStalePartialBatch(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1) // 0 is the emitter's "no pending deadline" sentinel
	topo := NewTopology()
	topo.SetNowNanos(func() int64 { return clock.Load() })
	src := topo.AddSource("src", 1)
	var mu sync.Mutex
	seen := map[int64]int{}
	topo.AddOperator("sink", 2, func(int) Logic {
		return &SinkLogic{Tuple: func(tu event.Tuple) {
			mu.Lock()
			seen[tu.Key]++
			mu.Unlock()
		}}
	}, KeyedInput(src))
	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := job.SourceContext(src, 0)
	// Phase 1: 20 tuples on one key sit pending on that edge, short of the
	// batch size.
	for i := 0; i < 20; i++ {
		sc.EmitTuple(tupleAt(1, event.Time(i)))
	}
	// Phase 2: the deadline passes, and traffic on a *different* key keeps
	// the emitter's deadline checks running. The stuck key-1 batch must ship
	// even though its own edge sees no new tuples.
	clock.Add(2 * exchangeFlushNanos)
	for i := 0; i < 64; i++ {
		sc.EmitTuple(tupleAt(2, event.Time(20+i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := seen[1]
		mu.Unlock()
		if n == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("key-1 tuples delivered = %d, want 20 via time-based flush", n)
		}
		time.Sleep(time.Millisecond)
	}
	job.Stop()
}

// TestFlushOnIdleShipsPartialBatch: an operator whose inbox runs dry
// flushes its partial output batches before blocking, so a low-rate edge is
// not stuck behind the batch size even without a clock.
func TestFlushOnIdleShipsPartialBatch(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	mid := topo.AddOperator("mid", 1, NewMapLogic(passThrough), KeyedInput(src))
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(mid))
	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := job.SourceContext(src, 0)
	// 3 tuples: far short of a batch. mid→sink holds a partial batch that
	// only the idle flush can ship (no watermark, no EOS, no clock).
	for i := int64(0); i < 3; i++ {
		sc.EmitTuple(tupleAt(i, event.Time(i)))
	}
	// A MinTime watermark flushes the src→mid edge (control broadcasts flush
	// first) but is ignored by mid's watermark bookkeeping, so mid emits no
	// control element of its own: only mid's idle flush can ship its output.
	sc.EmitWatermark(event.MinTime)
	deadline := time.Now().Add(5 * time.Second)
	for {
		col.mu.Lock()
		n := len(col.tuples)
		col.mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink got %d tuples, want 3 via idle flush", n)
		}
		time.Sleep(time.Millisecond)
	}
	job.Stop()
}
