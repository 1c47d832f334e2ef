package checkpoint

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/event"
	"astream/internal/fault"
)

// TestControlBlobRejectsTrailingBytes: a control blob decodes only when every
// byte is accounted for.
func TestControlBlobRejectsTrailingBytes(t *testing.T) {
	r := mustOpen(t, core.Config{Streams: 1, Parallelism: 1}, t.TempDir(), durable.Options{})
	defer r.Crash()
	blob := r.controlBlob()
	if _, eng, err := splitControlBlob(blob); err != nil || len(eng) == 0 {
		t.Fatalf("control blob: engine part %d bytes, err %v", len(eng), err)
	}
	if _, _, err := splitControlBlob(append(blob, 0xEE)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("control blob with a trailing byte: %v", err)
	}
}

// TestTxSinkEpochs: results are invisible until their epoch commits, and a
// replayed copy of a committed epoch is dropped.
func TestTxSinkEpochs(t *testing.T) {
	store, err := durable.OpenStore(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	committed := func() []string {
		t.Helper()
		if err := store.PublishOutput(); err != nil {
			t.Fatal(err)
		}
		out, err := store.Committed()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	s := &txSink{store: store}
	r := core.Result{QueryID: 1, Kind: core.KindAggregation, Key: 9, Value: 5}
	s.OnResult(r)
	if got := committed(); len(got) != 0 {
		t.Fatalf("nothing should be committed yet: %v", got)
	}
	if len(s.pending) != 1 {
		t.Fatal("one pending result expected")
	}
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if got := committed(); len(got) != 1 {
		t.Fatalf("committed = %v", got)
	}
	// Replayed duplicate epoch is dropped.
	s.OnResult(r)
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if got := committed(); len(got) != 1 {
		t.Fatalf("replayed duplicate not deduped: %v", got)
	}
	// A new epoch after recovery commits normally.
	s.OnResult(core.Result{QueryID: 1, Kind: core.KindAggregation, Key: 9, Value: 7})
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if got := committed(); len(got) != 2 {
		t.Fatalf("post-recovery epoch missing: %v", got)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashSteps is the workload of the crash-point tests: the chaos queries over
// 6 phases of 25 ticks.
func crashSteps() []step {
	return workload(31, 6, 25, 2, testQuery(core.KindAggregation), testQuery(core.KindJoin))
}

func TestExactlyOnceUnderCrash(t *testing.T) {
	steps := crashSteps()
	var checkpoints []int // index one past each checkpoint step
	for i, s := range steps {
		if s.kind == stepCheckpoint {
			checkpoints = append(checkpoints, i+1)
		}
	}
	cfg := testConfig(nil, 0)
	for crashAt := 1; crashAt <= 4; crashAt++ {
		cut := checkpoints[crashAt-1]
		t.Run(fmt.Sprintf("crashAfterCkpt%d", crashAt), func(t *testing.T) {
			// The crash loses the open epoch's buffered results but keeps the
			// log; the successor regenerates them and must expose every
			// result of the logged prefix exactly once — the output of the
			// never-restarted run of that prefix.
			dir := t.TempDir()
			r := mustOpen(t, cfg, dir, durable.Options{})
			if i, err := applyUntilError(r, steps[:cut], 0); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			r.Crash()
			got := mustFinish(t, mustOpen(t, cfg, dir, durable.Options{}))
			assertSameOutput(t, got, cleanRun(t, steps[:cut]))
		})
	}
}

func TestCleanRunMatchesReplayedRun(t *testing.T) {
	// Determinism: a full clean run equals a full replay of its log. The
	// replayed directory never checkpoints, so its successor starts from
	// record zero.
	steps := crashSteps()
	want := cleanRun(t, steps)

	cfg, dir := testConfig(nil, 0), t.TempDir()
	r := mustOpen(t, cfg, dir, durable.Options{})
	for i, s := range steps {
		if s.kind == stepCheckpoint {
			continue
		}
		if err := apply(r, s); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	logLen := r.Store().WAL().Len()
	r.Crash()
	rec := mustOpen(t, cfg, dir, durable.Options{})
	if k, ok := rec.Store().LatestComplete(); ok {
		t.Fatalf("uncheckpointed directory restored checkpoint %d", k)
	}
	if got := rec.Store().WAL().Len(); got != logLen {
		t.Fatalf("reopened log lost records: %d vs %d", got, logLen)
	}
	got := mustFinish(t, rec)
	sort.Strings(want)
	sort.Strings(got)
	assertSameOutput(t, got, want)
}

func TestCheckpointEpochBoundaries(t *testing.T) {
	r := mustOpen(t, core.Config{
		Streams: 2, Parallelism: 2, WatermarkEvery: 1,
		NowNanos: func() int64 { return 1 },
	}, t.TempDir(), durable.Options{})
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
	got, err := r.Store().Committed()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("epoch 0 committed %d results, want ≥ 2: %v", len(got), got)
	}
	if offs, n := r.Store().Offsets(), r.Store().WAL().Len(); len(offs) != 1 || offs[0] != n {
		t.Fatalf("offsets = %v, log len %d", offs, n)
	}
	mustFinish(t, r)
}

// TestRejectedCallsAreNotLogged: a submit, stop or ingest the engine rejects
// fails before the log holds it — a logged record that does not apply would
// fail every replay — so the log does not grow and the directory reopens.
func TestRejectedCallsAreNotLogged(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(nil, 0)
	r := mustOpen(t, cfg, dir, durable.Options{})
	if err := r.Submit(testQuery(core.KindAggregation)); err != nil {
		t.Fatal(err)
	}
	if err := r.StopOrdinal(1); err != nil {
		t.Fatal(err)
	}
	bad := testQuery(core.KindAggregation)
	bad.Arity = 3
	logged := r.Store().WAL().Len()
	for name, err := range map[string]error{
		"submit of a 3-stream query": r.Submit(bad),
		"stop of a stopped query":    r.StopOrdinal(1),
		"stop of no query":           r.StopOrdinal(2),
		"ingest into stream 2":       r.Ingest(2, event.Tuple{Time: 1}),
		"ingest into stream -1":      r.Ingest(-1, event.Tuple{Time: 1}),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if n := r.Store().WAL().Len(); n != logged {
		t.Fatalf("rejected calls logged %d records", n-logged)
	}
	r.Crash()
	mustOpen(t, cfg, dir, durable.Options{}).Crash()
}

// TestFinishFailsAfterInstanceDeath: an instance that died after the last
// checkpoint took its share of the final epoch with it, so Finish refuses to
// commit that epoch and the directory keeps only what checkpoints committed.
func TestFinishFailsAfterInstanceDeath(t *testing.T) {
	plan := fault.NewPlan(fault.Op{Kind: fault.KillAfterTuples, Op: "aggregate", Instance: 0, N: 1})
	dir := t.TempDir()
	r := mustOpen(t, testConfig(plan, 0), dir, durable.Options{})
	if err := r.Submit(testQuery(core.KindAggregation)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		tu := event.Tuple{Key: int64(i % 4), Time: event.Time(i)}
		tu.Fields[0] = 50
		if err := r.Ingest(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := r.Finish(); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("finish after a kill: %d results, %v", len(out), err)
	}
	if k := latestOnDisk(t, dir); k != 0 {
		t.Fatalf("latest checkpoint %d, want none", k)
	}
}
