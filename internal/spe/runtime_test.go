package spe

import (
	"testing"

	"astream/internal/event"
)

// newBareRT builds an instance runtime with a sink-less emitter for direct
// handle() testing.
func newBareRT(senders int, logic Logic) *instanceRT {
	op := &Node{name: "test", parallelism: 1}
	em := &Emitter{}
	rt := newInstanceRT(op, 0, []chainMember{{node: op, logic: logic, out: em}}, senders, 16)
	rt.emitter = em
	return rt
}

type recording struct {
	BaseLogic
	wms      []event.Time
	cls      []uint64
	barriers []uint64
	eos      int
	tuples   []event.Tuple
}

func (r *recording) OnTuple(_ int, t event.Tuple, _ *Emitter) { r.tuples = append(r.tuples, t) }
func (r *recording) OnWatermark(w event.Time, _ *Emitter)     { r.wms = append(r.wms, w) }
func (r *recording) OnChangelog(p any, _ event.Time, _ *Emitter) {
	r.cls = append(r.cls, p.(*testChangelog).seq)
}
func (r *recording) OnBarrier(id uint64, _ *Emitter) []byte {
	r.barriers = append(r.barriers, id)
	return nil
}
func (r *recording) OnEOS(*Emitter) { r.eos++ }

func TestRuntimeWatermarkRegressionIgnored(t *testing.T) {
	rec := &recording{}
	rt := newBareRT(1, rec)
	rt.handle(message{sender: 0, elem: event.NewWatermark(10)})
	rt.handle(message{sender: 0, elem: event.NewWatermark(5)})  // regression
	rt.handle(message{sender: 0, elem: event.NewWatermark(10)}) // duplicate
	rt.handle(message{sender: 0, elem: event.NewWatermark(12)})
	if len(rec.wms) != 2 || rec.wms[0] != 10 || rec.wms[1] != 12 {
		t.Fatalf("wms = %v, want [10 12]", rec.wms)
	}
}

func TestRuntimeChangelogGapFails(t *testing.T) {
	rec := &recording{}
	rt := newBareRT(1, rec)
	if err := rt.handle(message{sender: 0, elem: event.NewChangelog(&testChangelog{1}, 1)}); err != nil {
		t.Fatalf("in-order changelog: %v", err)
	}
	if err := rt.handle(message{sender: 0, elem: event.NewChangelog(&testChangelog{3}, 3)}); err == nil {
		t.Fatal("changelog seq gap must fail the instance")
	}
}

func TestRuntimeBadChangelogPayloadFails(t *testing.T) {
	rec := &recording{}
	rt := newBareRT(1, rec)
	if err := rt.handle(message{sender: 0, elem: event.NewChangelog("not a payload", 1)}); err == nil {
		t.Fatal("non-ChangelogPayload must fail the instance")
	}
}

func TestRuntimeOverlappingBarriersFail(t *testing.T) {
	rec := &recording{}
	rt := newBareRT(2, rec)
	if err := rt.handle(message{sender: 0, elem: event.NewBarrier(1)}); err != nil {
		t.Fatalf("first barrier: %v", err)
	}
	if err := rt.handle(message{sender: 1, elem: event.NewBarrier(2)}); err == nil {
		t.Fatal("overlapping barriers must fail the instance")
	}
}

func TestRuntimeBarrierBuffersBlockedSender(t *testing.T) {
	rec := &recording{}
	rt := newBareRT(2, rec)
	rt.handle(message{sender: 0, elem: event.NewBarrier(1)})
	// Tuples from the barriered sender buffer; the other flows.
	rt.handle(message{sender: 0, batch: &tupleBatch{ts: []event.Tuple{{}}}})
	rt.handle(message{sender: 1, batch: &tupleBatch{ts: []event.Tuple{{}}}})
	if len(rec.tuples) != 1 {
		t.Fatalf("tuples processed during alignment = %d, want 1", len(rec.tuples))
	}
	rt.handle(message{sender: 1, elem: event.NewBarrier(1)})
	if len(rec.barriers) != 1 || rec.barriers[0] != 1 {
		t.Fatalf("barriers = %v", rec.barriers)
	}
	if len(rec.tuples) != 2 {
		t.Fatalf("buffered tuple not replayed: %d", len(rec.tuples))
	}
}

func TestRuntimeDuplicateEOSIgnored(t *testing.T) {
	rec := &recording{}
	rt := newBareRT(2, rec)
	rt.handle(message{sender: 0, elem: event.EOS()})
	rt.handle(message{sender: 0, elem: event.EOS()})
	if rt.doneCount != 1 {
		t.Fatalf("doneCount = %d, want 1", rt.doneCount)
	}
}

func TestPartitionModeStrings(t *testing.T) {
	if Keyed.String() != "keyed" || Global.String() != "global" {
		t.Fatal("PartitionMode strings")
	}
	if Forward.String() != "forward" {
		t.Fatalf("Forward.String() = %q, want %q", Forward.String(), "forward")
	}
	if got := PartitionMode(99).String(); got != "mode(99)" {
		t.Fatalf("unknown mode String() = %q", got)
	}
}

func TestHashKeySpread(t *testing.T) {
	if hashKey(42, 1) != 0 {
		t.Fatal("single instance must map to 0")
	}
	seen := map[int]bool{}
	for k := int64(0); k < 1000; k++ {
		h := hashKey(k, 8)
		if h < 0 || h >= 8 {
			t.Fatalf("hashKey out of range: %d", h)
		}
		seen[h] = true
	}
	if len(seen) != 8 {
		t.Fatalf("hashKey used %d of 8 buckets", len(seen))
	}
}
