package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"astream/internal/durable"
	"astream/internal/spe"
)

func mustPanic(t *testing.T, why string, fn func()) (v any) {
	t.Helper()
	defer func() {
		v = recover()
		if v == nil {
			t.Fatalf("%s: expected panic", why)
		}
		if _, ok := v.(Injected); !ok {
			t.Fatalf("%s: panic value %T, want fault.Injected", why, v)
		}
	}()
	fn()
	return nil
}

func TestKillAfterTuplesFiresOnceAtThreshold(t *testing.T) {
	p := NewPlan(Op{Kind: KillAfterTuples, Op: "select-0", Instance: 1, N: 3})
	// Non-matching op/instance never fires.
	for i := 0; i < 10; i++ {
		p.BeforeTuple("select-0", 0)
		p.BeforeTuple("join-0", 1)
	}
	p.BeforeTuple("select-0", 1)
	p.BeforeTuple("select-0", 1)
	mustPanic(t, "third matching tuple", func() { p.BeforeTuple("select-0", 1) })
	// One-shot: the instance restarts and reprocesses without re-dying.
	for i := 0; i < 10; i++ {
		p.BeforeTuple("select-0", 1)
	}
	if got := p.Fired(); len(got) != 1 || !strings.Contains(got[0], "kill-after-tuples") {
		t.Fatalf("fired log = %v", got)
	}
}

func TestKillAtBarrier(t *testing.T) {
	p := NewPlan(Op{Kind: KillAtBarrier, Op: "aggregate", Instance: -1, Barrier: 2})
	p.AtBarrier("aggregate", 0, 1)
	p.AtBarrier("select-0", 0, 2) // wrong op
	mustPanic(t, "barrier 2", func() { p.AtBarrier("aggregate", 1, 2) })
	p.AtBarrier("aggregate", 0, 2) // one-shot
}

func TestBatchFaults(t *testing.T) {
	p := NewPlan(
		Op{Kind: DropBatch, Op: "src-0", Instance: 0, N: 2},
		Op{Kind: CorruptBatch, Op: "src-0", Instance: 0, N: 3},
		Op{Kind: DelayBatch, Op: "src-0", Instance: 0, N: 4},
	)
	payload := []byte{1, 2, 3}
	if got, bf := p.OnBatch("src-0", 0, payload); bf != spe.BatchOK || !reflect.DeepEqual(got, payload) {
		t.Fatalf("batch 1: %v %v", got, bf)
	}
	if _, bf := p.OnBatch("src-0", 0, payload); bf != spe.BatchDrop {
		t.Fatalf("batch 2 not dropped: %v", bf)
	}
	if got, bf := p.OnBatch("src-0", 0, payload); bf != spe.BatchOK || reflect.DeepEqual(got, payload) {
		t.Fatalf("batch 3 not corrupted: %v %v", got, bf)
	}
	if _, bf := p.OnBatch("src-0", 0, payload); bf != spe.BatchDelay {
		t.Fatalf("batch 4 not delayed: %v", bf)
	}
	// All one-shot.
	if got, bf := p.OnBatch("src-0", 0, payload); bf != spe.BatchOK || !reflect.DeepEqual(got, payload) {
		t.Fatalf("batch 5: %v %v", got, bf)
	}
	if len(p.Fired()) != 3 {
		t.Fatalf("fired log = %v", p.Fired())
	}
}

func TestPredicatePanicKeepsFiring(t *testing.T) {
	p := NewPlan(Op{Kind: PanicPredicate, QueryID: 7})
	p.BeforePredicate(0, 6) // other query untouched
	for i := 0; i < 5; i++ {
		mustPanic(t, "predicate", func() { p.BeforePredicate(0, 7) })
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	cfg := RandomConfig{
		Ops: []string{"src-0", "select-0", "join-0", "aggregate"}, Instances: 2,
		MaxTuples: 100, Barriers: 5, Batches: 10, NumFaults: 6, AllowBatchFaults: true,
	}
	a, b := RandomPlan(42, cfg), RandomPlan(42, cfg)
	if !reflect.DeepEqual(a.Ops(), b.Ops()) {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Ops(), b.Ops())
	}
	c := RandomPlan(43, cfg)
	if reflect.DeepEqual(a.Ops(), c.Ops()) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a.Ops()) != 6 {
		t.Fatalf("ops = %v", a.Ops())
	}
	// Without batch faults, only kill kinds appear.
	cfg.AllowBatchFaults = false
	for _, o := range RandomPlan(7, cfg).Ops() {
		if o.Kind != KillAfterTuples && o.Kind != KillAtBarrier {
			t.Fatalf("unexpected kind %v without AllowBatchFaults", o.Kind)
		}
	}
}

// TestRandomPlanDiskDeterministic: equal seeds draw equal disk schedules,
// different seeds different ones, and the draw reaches every operation class
// and every write fault.
func TestRandomPlanDiskDeterministic(t *testing.T) {
	cfg := RandomDiskConfig{NumFaults: 200, MaxWAL: 100, MaxSnap: 20, MaxManifest: 5}
	a, b := RandomDiskPlan(42, cfg), RandomDiskPlan(42, cfg)
	if !reflect.DeepEqual(a.Ops(), b.Ops()) {
		t.Fatalf("same seed diverged:\n%v\n%v", a.Ops(), b.Ops())
	}
	if reflect.DeepEqual(a.Ops(), RandomDiskPlan(43, cfg).Ops()) {
		t.Fatal("different seeds produced identical schedules")
	}
	classes, kinds := map[durable.Op]bool{}, map[DiskOpKind]bool{}
	for _, o := range a.Ops() {
		classes[o.class()], kinds[o.Kind] = true, true
		if o.Kind != CrashAt && o.class() != durable.OpWrite {
			t.Fatalf("%v damages the bytes of a %v", o.Kind, o.Class)
		}
	}
	if len(classes) != durable.NumOps || len(kinds) != 3 {
		t.Fatalf("200 draws reached classes %v and kinds %v", classes, kinds)
	}
}

// TestDiskPlanFiresOnce: an op fires at the N-th operation of its class on
// its target — tearing, corrupting or withholding a write's bytes — with an
// error wrapping durable.ErrInjectedCrash, and never again; Seen lists every
// operation as the op that would fail exactly it.
func TestDiskPlanFiresOnce(t *testing.T) {
	p := NewDiskPlan(
		DiskOp{Kind: TornWriteAt, Target: TargetWAL, N: 2},
		DiskOp{Kind: CorruptCRC, Target: TargetSnap, N: 1},
		DiskOp{Kind: CrashAt, Class: durable.OpRename, Target: TargetManifest, N: 1},
		DiskOp{Kind: CrashAt, Class: durable.OpWrite, Target: TargetAny, N: 4},
	)
	data := []byte{1, 2, 3, 4}
	for i, tc := range []struct {
		op   durable.Op
		path string
		want []byte
		hit  bool
	}{
		{durable.OpWrite, "d/wal/wal-00.seg", data, false},
		{durable.OpRename, "d/snap/snap-01", nil, false},
		{durable.OpWrite, "d/wal/wal-00.seg", data[:2], true},
		{durable.OpWrite, "d/snap/snap-01.tmp", []byte{1, 2, 3, 4 ^ 0xA5}, true},
		{durable.OpRename, "d/manifest", nil, true},
		{durable.OpRename, "d/manifest", nil, false},
		{durable.OpWrite, "d/out/out-00.tmp", nil, true},
		{durable.OpWrite, "d/wal/wal-00.seg", data, false},
	} {
		in := data
		if tc.op != durable.OpWrite {
			in = nil
		}
		got, err := p.Disk(tc.op, tc.path, in)
		if hit := err != nil; hit != tc.hit || !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("operation %d (%v %s): %v, %v", i, tc.op, tc.path, got, err)
		}
		if tc.hit && !errors.Is(err, durable.ErrInjectedCrash) {
			t.Fatalf("operation %d: %v does not wrap the injected-crash sentinel", i, err)
		}
	}
	if n := len(p.Fired()); n != 4 {
		t.Fatalf("fired %v", p.Fired())
	}
	seen := p.Seen()
	want := DiskOp{Kind: CrashAt, Class: durable.OpRename, Target: TargetManifest, N: 2}
	if len(seen) != 8 || seen[5] != want {
		t.Fatalf("seen %v", seen)
	}
}
