package spe

import (
	"sort"
	"sync"
	"testing"

	"astream/internal/bitset"
	"astream/internal/event"
)

// collector is a thread-safe sink target.
type collector struct {
	mu     sync.Mutex
	tuples []event.Tuple
	wms    []event.Time
	eos    int
}

func (c *collector) add(t event.Tuple) {
	c.mu.Lock()
	c.tuples = append(c.tuples, t)
	c.mu.Unlock()
}

func (c *collector) addWM(w event.Time) {
	c.mu.Lock()
	c.wms = append(c.wms, w)
	c.mu.Unlock()
}

func (c *collector) addEOS() {
	c.mu.Lock()
	c.eos++
	c.mu.Unlock()
}

func (c *collector) sinkFactory() func(int) Logic {
	return func(int) Logic {
		return &SinkLogic{Tuple: c.add, WM: c.addWM, EOS: c.addEOS}
	}
}

func tupleAt(key int64, tm event.Time) event.Tuple {
	return event.Tuple{Key: key, Time: tm}
}

func TestLinearPipeline(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	double := topo.AddOperator("double", 2, NewMapLogic(func(tu *event.Tuple) bool {
		tu.Fields[0] *= 2
		return true
	}), KeyedInput(src))
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(double))

	job, err := Deploy(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := job.SourceContext(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		tu := tupleAt(i, event.Time(i))
		tu.Fields[0] = i
		sc.EmitTuple(tu)
	}
	sc.EmitWatermark(99)
	job.Stop()

	if len(col.tuples) != 100 {
		t.Fatalf("sink got %d tuples, want 100", len(col.tuples))
	}
	for _, tu := range col.tuples {
		if tu.Fields[0] != tu.Key*2 {
			t.Fatalf("map not applied: key=%d f0=%d", tu.Key, tu.Fields[0])
		}
	}
	if len(col.wms) == 0 || col.wms[len(col.wms)-1] != 99 {
		t.Fatalf("watermarks = %v, want last 99", col.wms)
	}
	if col.eos != 1 {
		t.Fatalf("eos count = %d, want 1", col.eos)
	}
}

func TestFilterDropsTuples(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	filt := topo.AddOperator("filter", 1, NewMapLogic(func(tu *event.Tuple) bool {
		return tu.Key%2 == 0
	}), KeyedInput(src))
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(filt))
	job, _ := Deploy(topo)
	sc, _ := job.SourceContext(src, 0)
	for i := int64(0); i < 10; i++ {
		sc.EmitTuple(tupleAt(i, event.Time(i)))
	}
	job.Stop()
	if len(col.tuples) != 5 {
		t.Fatalf("filter passed %d, want 5", len(col.tuples))
	}
}

func TestKeyedPartitioningIsConsistent(t *testing.T) {
	// Two parallel instances record which keys they see; a key must always
	// go to the same instance.
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	var mu sync.Mutex
	seen := map[int64]map[int]bool{} // key -> set of instances
	mk := func(inst int) Logic {
		return &SinkLogic{Tuple: func(tu event.Tuple) {
			mu.Lock()
			if seen[tu.Key] == nil {
				seen[tu.Key] = map[int]bool{}
			}
			seen[tu.Key][inst] = true
			mu.Unlock()
		}}
	}
	topo.AddOperator("sink", 4, mk, KeyedInput(src))
	job, _ := Deploy(topo)
	sc0, _ := job.SourceContext(src, 0)
	sc1, _ := job.SourceContext(src, 1)
	for i := int64(0); i < 200; i++ {
		sc0.EmitTuple(tupleAt(i%20, event.Time(i)))
		sc1.EmitTuple(tupleAt(i%20, event.Time(i)))
	}
	job.Stop()
	hit := map[int]bool{}
	for k, insts := range seen {
		if len(insts) != 1 {
			t.Fatalf("key %d reached %d instances", k, len(insts))
		}
		for i := range insts {
			hit[i] = true
		}
	}
	if len(hit) < 2 {
		t.Fatalf("only %d instances used; partitioning degenerate", len(hit))
	}
}

func TestWatermarkIsMinAcrossSenders(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(src))
	job, _ := Deploy(topo)
	sc0, _ := job.SourceContext(src, 0)
	sc1, _ := job.SourceContext(src, 1)

	sc0.EmitWatermark(10)
	sc0.EmitWatermark(50)
	sc1.EmitWatermark(30)
	// Combined watermark can be at most 30 now.
	sc1.EmitWatermark(60)
	// Now min(50, 60) = 50. Close the faster sender first so the minimum
	// stays pinned at 50 through the drain.
	sc1.Close()
	sc0.Close()
	job.Wait()

	if len(col.wms) == 0 {
		t.Fatal("no watermarks delivered")
	}
	for i := 1; i < len(col.wms); i++ {
		if col.wms[i] <= col.wms[i-1] {
			t.Fatalf("watermarks not strictly increasing: %v", col.wms)
		}
	}
	last := col.wms[len(col.wms)-1]
	if last != 50 {
		t.Fatalf("final watermark = %v, want 50 (min across senders)", last)
	}
	for _, w := range col.wms {
		if w == 60 {
			t.Fatal("watermark 60 leaked past a slower sender")
		}
	}
}

func TestWatermarkAdvancesWhenSenderFinishes(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(src))
	job, _ := Deploy(topo)
	sc0, _ := job.SourceContext(src, 0)
	sc1, _ := job.SourceContext(src, 1)
	sc0.EmitWatermark(100)
	sc1.EmitWatermark(10)
	sc1.Close() // slow sender leaves; min should now be 100
	sc0.Close()
	job.Wait()
	if len(col.wms) == 0 || col.wms[len(col.wms)-1] != 100 {
		t.Fatalf("watermarks = %v, want final 100 after sender EOS", col.wms)
	}
}

type testChangelog struct{ seq uint64 }

func (c *testChangelog) ChangelogSeq() uint64 { return c.seq }

type clRecorder struct {
	BaseLogic
	mu   sync.Mutex
	seqs []uint64
}

func (r *clRecorder) OnChangelog(p any, _ event.Time, _ *Emitter) {
	r.mu.Lock()
	r.seqs = append(r.seqs, p.(*testChangelog).seq)
	r.mu.Unlock()
}

func TestChangelogDeliveredOncePerInstance(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 3) // three senders all broadcast the changelog
	rec := &clRecorder{}
	mid := topo.AddOperator("mid", 1, func(int) Logic { return rec }, KeyedInput(src))
	rec2 := &clRecorder{}
	topo.AddOperator("sink", 2, func(int) Logic { return rec2 }, KeyedInput(mid))
	job, _ := Deploy(topo)
	cls := []*testChangelog{{1}, {2}, {3}}
	for i := 0; i < 3; i++ {
		sc, _ := job.SourceContext(src, i)
		for _, cl := range cls {
			sc.EmitChangelog(cl, event.Time(cl.seq))
		}
	}
	job.Stop()
	if len(rec.seqs) != 3 {
		t.Fatalf("mid saw %d changelogs, want 3 (dedup failed): %v", len(rec.seqs), rec.seqs)
	}
	for i, s := range rec.seqs {
		if s != uint64(i+1) {
			t.Fatalf("mid changelog order = %v", rec.seqs)
		}
	}
	// Two sink instances each see each changelog once → 6 total, but each
	// instance has its own recorder shared here, so 2 instances × 3 = 6.
	if len(rec2.seqs) != 6 {
		t.Fatalf("sink instances saw %d changelog deliveries, want 6", len(rec2.seqs))
	}
}

type barrierRecorder struct {
	BaseLogic
	mu    sync.Mutex
	ids   []uint64
	state []byte
}

func (b *barrierRecorder) OnTuple(_ int, t event.Tuple, out *Emitter) {
	out.EmitTuple(t) // forward
}

func (b *barrierRecorder) OnBarrier(id uint64, _ *Emitter) []byte {
	b.mu.Lock()
	b.ids = append(b.ids, id)
	b.mu.Unlock()
	return b.state
}

type snapStore struct {
	mu    sync.Mutex
	snaps []string
}

func (s *snapStore) OnSnapshot(op string, inst int, id uint64, state []byte) {
	s.mu.Lock()
	s.snaps = append(s.snaps, op)
	s.mu.Unlock()
}

func TestBarrierAlignmentAndSnapshot(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	rec := &barrierRecorder{state: []byte("s")}
	mid := topo.AddOperator("mid", 1, func(int) Logic { return rec }, KeyedInput(src))
	var col collector
	topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(mid))
	store := &snapStore{}
	job, err := Deploy(topo, WithSnapshotSink(store))
	if err != nil {
		t.Fatal(err)
	}
	sc0, _ := job.SourceContext(src, 0)
	sc1, _ := job.SourceContext(src, 1)

	sc0.EmitBarrier(1)
	// Tuples from the barriered sender must be held back until alignment.
	sc0.EmitTuple(tupleAt(1, 5))
	sc1.EmitTuple(tupleAt(2, 5))
	sc1.EmitBarrier(1)
	job.Stop()

	rec.mu.Lock()
	ids := append([]uint64(nil), rec.ids...)
	rec.mu.Unlock()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("mid barrier calls = %v, want [1]", ids)
	}
	if len(col.tuples) != 2 {
		t.Fatalf("sink got %d tuples, want 2", len(col.tuples))
	}
	store.mu.Lock()
	n := len(store.snaps)
	store.mu.Unlock()
	// mid (1 instance) + sink (1 instance) each snapshot once.
	if n != 2 {
		t.Fatalf("snapshots = %d, want 2", n)
	}
}

func TestBarrierCompletesWhenSenderClosesWithoutIt(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	rec := &barrierRecorder{}
	topo.AddOperator("mid", 1, func(int) Logic { return rec }, KeyedInput(src))
	job, _ := Deploy(topo)
	sc0, _ := job.SourceContext(src, 0)
	sc1, _ := job.SourceContext(src, 1)
	sc0.EmitBarrier(7)
	sc1.Close() // never sends the barrier
	sc0.Close()
	job.Wait()
	if len(rec.ids) != 1 || rec.ids[0] != 7 {
		t.Fatalf("barrier ids = %v, want [7]", rec.ids)
	}
}

func TestTwoInputPorts(t *testing.T) {
	// A binary operator sees tuples tagged with the right port.
	topo := NewTopology()
	a := topo.AddSource("A", 1)
	b := topo.AddSource("B", 1)
	var mu sync.Mutex
	ports := map[int64]int{}
	logic := func(int) Logic {
		return &portRecorder{ports: ports, mu: &mu}
	}
	topo.AddOperator("join", 2, logic, KeyedInput(a), KeyedInput(b))
	job, _ := Deploy(topo)
	sa, _ := job.SourceContext(a, 0)
	sb, _ := job.SourceContext(b, 0)
	for i := int64(0); i < 10; i++ {
		sa.EmitTuple(tupleAt(i, 0))
		sb.EmitTuple(tupleAt(100+i, 0))
	}
	job.Stop()
	for k, p := range ports {
		want := 0
		if k >= 100 {
			want = 1
		}
		if p != want {
			t.Fatalf("key %d arrived on port %d, want %d", k, p, want)
		}
	}
	if len(ports) != 20 {
		t.Fatalf("saw %d keys, want 20", len(ports))
	}
}

type portRecorder struct {
	BaseLogic
	mu    *sync.Mutex
	ports map[int64]int
}

func (p *portRecorder) OnTuple(port int, t event.Tuple, _ *Emitter) {
	p.mu.Lock()
	p.ports[t.Key] = port
	p.mu.Unlock()
}

func TestGlobalMode(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	var mu sync.Mutex
	gcounts := make([]int, 3)
	mkGlobal := func(inst int) Logic {
		return &SinkLogic{Tuple: func(event.Tuple) {
			mu.Lock()
			gcounts[inst]++
			mu.Unlock()
		}}
	}
	topo.AddOperator("global", 3, mkGlobal, GlobalInput(src))
	job, _ := Deploy(topo)
	sc, _ := job.SourceContext(src, 0)
	for i := int64(0); i < 30; i++ {
		sc.EmitTuple(tupleAt(i, 0))
	}
	job.Stop()
	if gcounts[0] != 30 || gcounts[1] != 0 || gcounts[2] != 0 {
		t.Fatalf("global counts = %v, want [30 0 0]", gcounts)
	}
}

func TestValidateErrors(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	topo.AddOperator("bad", 0, NewMapLogic(func(*event.Tuple) bool { return true }), KeyedInput(src))
	if _, err := Deploy(topo); err == nil {
		t.Fatal("zero parallelism must fail deploy")
	}

	topo2 := NewTopology()
	topo2.AddOperator("orphan", 1, NewMapLogic(func(*event.Tuple) bool { return true }))
	if _, err := Deploy(topo2); err == nil {
		t.Fatal("operator without inputs must fail deploy")
	}

	topo3 := NewTopology()
	s3 := topo3.AddSource("s", 1)
	topo3.AddOperator("noLogic", 1, nil, KeyedInput(s3))
	if _, err := Deploy(topo3); err == nil {
		t.Fatal("nil logic must fail deploy")
	}

	topoA := NewTopology()
	topoB := NewTopology()
	sA := topoA.AddSource("s", 1)
	topoB.AddOperator("crossTopo", 1, NewMapLogic(func(*event.Tuple) bool { return true }), KeyedInput(sA))
	if _, err := Deploy(topoB); err == nil {
		t.Fatal("cross-topology input must fail deploy")
	}
}

func TestSourceContextErrors(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	var col collector
	sink := topo.AddOperator("sink", 1, col.sinkFactory(), KeyedInput(src))
	job, _ := Deploy(topo)
	if _, err := job.SourceContext(sink, 0); err == nil {
		t.Fatal("SourceContext on non-source must fail")
	}
	if _, err := job.SourceContext(src, 5); err == nil {
		t.Fatal("SourceContext with bad instance must fail")
	}
	job.Stop()
}

// TestControlCodecRoundTrip covers the element codec, which carries control
// elements only (tuples cross edges in batch frames: TestBatchCodecRoundTrip;
// their byte layout round-trips in internal/wire).
func TestControlCodecRoundTrip(t *testing.T) {
	c := BinaryCodec{}
	els := []event.Element{
		event.NewWatermark(777),
		event.NewBarrier(3),
		event.EOS(),
		event.NewChangelog(nil, 55), // the envelope only; send reattaches the payload
	}
	for _, el := range els {
		got, err := c.DecodeControl(c.AppendControl(nil, el))
		if err != nil {
			t.Fatalf("decode(%v): %v", el.Kind, err)
		}
		if got.Kind != el.Kind || got.Watermark != el.Watermark || got.Barrier != el.Barrier {
			t.Fatalf("round trip changed control fields: %+v vs %+v", got, el)
		}
	}
	// Corrupt inputs.
	enc := c.AppendControl(nil, event.NewWatermark(777))
	if _, err := c.DecodeControl(nil); err == nil {
		t.Fatal("nil input must fail")
	}
	if _, err := c.DecodeControl([]byte{99, byte(event.KindEOS)}); err == nil {
		t.Fatal("bad version must fail")
	}
	if _, err := c.DecodeControl(enc[:3]); err == nil {
		t.Fatal("truncation must fail")
	}
	if _, err := c.DecodeControl([]byte{codecVersion, byte(event.KindTuple)}); err == nil {
		t.Fatal("a tuple is not a control element")
	}
}

func TestCrossNodeEdgesUseCodec(t *testing.T) {
	topo := NewTopology()
	src := topo.AddSource("src", 2)
	src.AssignNodes(2)
	var col collector
	sink := topo.AddOperator("sink", 2, col.sinkFactory(), KeyedInput(src))
	sink.AssignNodes(2)
	job, err := Deploy(topo, WithEdgeCodec(BinaryCodec{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sc, _ := job.SourceContext(src, i)
		for k := int64(0); k < 50; k++ {
			tu := tupleAt(k, event.Time(k))
			tu.QuerySet = bitset.FromIndexes(int(k % 5))
			sc.EmitTuple(tu)
		}
	}
	job.Stop()
	if len(col.tuples) != 100 {
		t.Fatalf("got %d tuples through cross-node edges, want 100", len(col.tuples))
	}
	sort.Slice(col.tuples, func(i, j int) bool { return col.tuples[i].Key < col.tuples[j].Key })
	for _, tu := range col.tuples {
		if !tu.QuerySet.Test(int(tu.Key % 5)) {
			t.Fatalf("query-set lost in codec round trip for key %d", tu.Key)
		}
	}
}

func TestDeterministicOrderPerKeySingleChain(t *testing.T) {
	// With one source and keyed exchange, per-key order must be preserved.
	topo := NewTopology()
	src := topo.AddSource("src", 1)
	mid := topo.AddOperator("mid", 4, NewMapLogic(func(*event.Tuple) bool { return true }), KeyedInput(src))
	var mu sync.Mutex
	perKey := map[int64][]event.Time{}
	topo.AddOperator("sink", 4, func(int) Logic {
		return &SinkLogic{Tuple: func(tu event.Tuple) {
			mu.Lock()
			perKey[tu.Key] = append(perKey[tu.Key], tu.Time)
			mu.Unlock()
		}}
	}, KeyedInput(mid))
	job, _ := Deploy(topo)
	sc, _ := job.SourceContext(src, 0)
	for i := int64(0); i < 500; i++ {
		sc.EmitTuple(tupleAt(i%10, event.Time(i)))
	}
	job.Stop()
	for k, times := range perKey {
		for i := 1; i < len(times); i++ {
			if times[i] <= times[i-1] {
				t.Fatalf("key %d out of order: %v", k, times[:i+1])
			}
		}
	}
}
