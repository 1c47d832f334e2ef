package checkpoint

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

func testQuery(kind core.Kind) *core.Query {
	switch kind {
	case core.KindJoin:
		return &core.Query{Kind: core.KindJoin, Arity: 2,
			Predicates: []expr.Predicate{expr.True(), expr.True()},
			Window:     window.TumblingSpec(8), AggField: -1}
	default:
		return &core.Query{Kind: core.KindAggregation, Arity: 1,
			Predicates: []expr.Predicate{expr.True().And(expr.Comparison{Field: 0, Op: expr.GT, Value: 20})},
			Window:     window.TumblingSpec(10), Agg: sqlstream.AggSum, AggField: 1}
	}
}

func TestLogMarshalRoundTrip(t *testing.T) {
	l := &Log{}
	l.Append(Record{Kind: RecSubmit, Query: testQuery(core.KindAggregation)})
	tu := event.Tuple{Key: 3, Time: 17, Fields: [event.NumFields]int64{1, 2, 3, 4, 5}, IngestNanos: 99}
	l.Append(Record{Kind: RecTuple, Stream: 1, Tuple: tu})
	l.Append(Record{Kind: RecStop, Ordinal: 1})

	got, err := UnmarshalLog(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("len = %d", got.Len())
	}
	recs := got.Slice(0, 3)
	if recs[0].Kind != RecSubmit || !reflect.DeepEqual(recs[0].Query, testQuery(core.KindAggregation)) {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].Kind != RecTuple || recs[1].Stream != 1 || recs[1].Tuple.Key != 3 ||
		recs[1].Tuple.Fields != tu.Fields || recs[1].Tuple.IngestNanos != 99 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	if recs[2].Kind != RecStop || recs[2].Ordinal != 1 {
		t.Fatalf("record 2 = %+v", recs[2])
	}
	if _, err := UnmarshalLog(nil); err == nil {
		t.Fatal("nil log must fail")
	}
	if _, err := UnmarshalLog(l.Marshal()[:9]); err == nil {
		t.Fatal("truncated log must fail")
	}
}

// TestLogDecodersRejectTrailingBytes: a record, a whole log and a control
// blob each decode only when every byte is accounted for. All three used to
// stop at the last field they knew and ignore the rest.
func TestLogDecodersRejectTrailingBytes(t *testing.T) {
	for _, rec := range []Record{
		{Kind: RecSubmit, Query: testQuery(core.KindJoin)},
		{Kind: RecTuple, Stream: 1, Tuple: event.Tuple{Key: 3, Time: 17}},
		{Kind: RecStop, Ordinal: 1},
	} {
		enc := AppendRecord(nil, &rec)
		if _, err := DecodeRecord(enc); err != nil {
			t.Fatalf("record kind %d: %v", rec.Kind, err)
		}
		if _, err := DecodeRecord(append(enc, 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("record kind %d with a trailing byte: %v", rec.Kind, err)
		}
	}
	l := &Log{}
	l.Append(Record{Kind: RecStop, Ordinal: 1})
	if _, err := UnmarshalLog(append(l.Marshal(), 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("log with a trailing byte: %v", err)
	}

	r, err := NewRunner(core.Config{Streams: 1, Parallelism: 1}, &Log{}, NewTxSink())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finish()
	blob := r.controlBlob()
	if _, eng, err := splitControlBlob(blob); err != nil || len(eng) == 0 {
		t.Fatalf("control blob: engine part %d bytes, err %v", len(eng), err)
	}
	if _, _, err := splitControlBlob(append(blob, 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("control blob with a trailing byte: %v", err)
	}
}

func TestTxSinkEpochs(t *testing.T) {
	s := NewTxSink()
	r := core.Result{QueryID: 1, Kind: core.KindAggregation, Key: 9, Value: 5}
	s.OnResult(r)
	if len(s.Committed()) != 0 {
		t.Fatal("nothing should be committed yet")
	}
	if s.PendingCount() != 1 {
		t.Fatal("one pending result expected")
	}
	s.Commit(0)
	if got := s.Committed(); len(got) != 1 {
		t.Fatalf("committed = %v", got)
	}
	// Replayed duplicate epoch is dropped.
	s2 := NewTxSink()
	s2.SeedCommitted(s.CommittedEpochs())
	s2.OnResult(r) // replayed copy of epoch 0
	s2.CommitReplayed(0)
	if got := s2.Committed(); len(got) != 1 {
		t.Fatalf("replayed duplicate not deduped: %v", got)
	}
	// A new epoch after recovery commits normally.
	s2.BeginEpoch(1)
	s2.OnResult(core.Result{QueryID: 1, Kind: core.KindAggregation, Key: 9, Value: 7})
	s2.CommitReplayed(1)
	if got := s2.Committed(); len(got) != 2 {
		t.Fatalf("post-recovery epoch missing: %v", got)
	}
}

// runCleanWorkload drives a workload with checkpoints and no crash,
// returning the exactly-once output.
func driveWorkload(t *testing.T, r *Runner, crashAfterCheckpoint int) (committed map[uint64][]string, manifest Manifest, crashed bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	if err := r.Submit(testQuery(core.KindAggregation)); err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(testQuery(core.KindJoin)); err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	ckpts := 0
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 25; i++ {
			now++
			for s := 0; s < 2; s++ {
				tu := event.Tuple{Key: int64(rng.Intn(3)), Time: now}
				for f := range tu.Fields {
					tu.Fields[f] = int64(rng.Intn(100))
				}
				if err := r.Ingest(s, tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		if phase == 2 {
			if err := r.StopOrdinal(1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckpts++
		if crashAfterCheckpoint > 0 && ckpts == crashAfterCheckpoint {
			return r.Crash(), r.Manifest(), true
		}
	}
	return nil, r.Manifest(), false
}

func newTestRunner(t *testing.T, log *Log) *Runner {
	t.Helper()
	r, err := NewRunner(core.Config{
		Streams: 2, Parallelism: 2, WatermarkEvery: 1,
		NowNanos: func() int64 { return 1 },
	}, log, NewTxSink())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExactlyOnceUnderCrash(t *testing.T) {
	// Reference: clean run, no crash.
	cleanLog := &Log{}
	clean := newTestRunner(t, cleanLog)
	driveWorkload(t, clean, 0)
	want := clean.Finish()
	if len(want) == 0 {
		t.Fatal("clean run produced nothing")
	}

	for crashAt := 1; crashAt <= 4; crashAt++ {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crashAfterCkpt%d", crashAt), func(t *testing.T) {
			log := &Log{}
			r := newTestRunner(t, log)
			committed, manifest, crashed := driveWorkload(t, r, crashAt)
			if !crashed {
				t.Fatal("expected crash")
			}
			// The crash loses uncommitted epochs but keeps the log; the
			// log must equal the clean run's prefix... in fact the whole
			// workload was logged before the crash point only partially.
			rec, err := Recover(core.Config{
				Streams: 2, Parallelism: 2, WatermarkEvery: 1,
				NowNanos: func() int64 { return 1 },
			}, log, manifest, committed)
			if err != nil {
				t.Fatal(err)
			}
			got := rec.FinishReplay()
			// The recovered output must equal the clean run restricted to
			// the logged prefix — regenerate that reference by replaying
			// the crash log on a fresh engine without any checkpoints.
			ref, err := Recover(core.Config{
				Streams: 2, Parallelism: 2, WatermarkEvery: 1,
				NowNanos: func() int64 { return 1 },
			}, log, Manifest{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantPrefix := ref.FinishReplay()
			sort.Strings(got)
			sort.Strings(wantPrefix)
			if len(got) != len(wantPrefix) {
				t.Fatalf("exactly-once violated: %d results, want %d", len(got), len(wantPrefix))
			}
			for i := range got {
				if got[i] != wantPrefix[i] {
					t.Fatalf("result %d: %q vs %q", i, got[i], wantPrefix[i])
				}
			}
		})
	}
	_ = want
}

func TestCleanRunMatchesReplayedRun(t *testing.T) {
	// Determinism: a full clean run equals a full replay of its log.
	log := &Log{}
	r := newTestRunner(t, log)
	_, manifest, _ := driveWorkload(t, r, 0)
	want := r.Finish()

	rec, err := Recover(core.Config{
		Streams: 2, Parallelism: 2, WatermarkEvery: 1,
		NowNanos: func() int64 { return 1 },
	}, log, manifest, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := rec.FinishReplay()
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("replay diverged: %d vs %d results", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("replay diverged at %d: %q vs %q", i, got[i], want[i])
		}
	}
	// The log itself survives serialization.
	l2, err := UnmarshalLog(log.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != log.Len() {
		t.Fatalf("serialized log lost records: %d vs %d", l2.Len(), log.Len())
	}
}

func TestCheckpointEpochBoundaries(t *testing.T) {
	log := &Log{}
	r := newTestRunner(t, log)
	if err := r.Submit(testQuery(core.KindAggregation)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		tu := event.Tuple{Key: 1, Time: event.Time(i), Fields: [event.NumFields]int64{50, 1, 0, 0, 0}}
		if err := r.Ingest(0, tu); err != nil {
			t.Fatal(err)
		}
		if err := r.Ingest(1, event.Tuple{Key: 1, Time: event.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	id, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first barrier id = %d", id)
	}
	// Windows [0,10) and [10,20) closed before the checkpoint (watermark
	// 30): their results are committed in epoch 0.
	got := r.sink.Committed()
	if len(got) < 2 {
		t.Fatalf("epoch 0 committed %d results, want ≥ 2: %v", len(got), got)
	}
	man := r.Manifest()
	if len(man.Offsets) != 1 || man.Offsets[0] != log.Len() {
		t.Fatalf("manifest = %+v, log len %d", man, log.Len())
	}
	r.Finish()
}
