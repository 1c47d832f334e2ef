package checkpoint

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/fault"
	"astream/internal/spe"
	"astream/internal/window"
)

// These tests kill an incarnation at chosen points, reopen the state
// directory — the only thing handed to the successor — and assert the final
// committed output is byte-identical to the fault-free, never-restarted run.
// The log suffix past the last completed checkpoint is replayed from the WAL;
// operators restore from deposit files: the selections' full snapshots, and
// the windowed operators' chains of a full snapshot and deltas.

// runWithRestarts drives steps on dir, crashing the incarnation at each index
// in cuts and reopening.
func runWithRestarts(t *testing.T, dir string, steps []step, cuts []int) []string {
	t.Helper()
	cfg := testConfig(nil)
	r := mustOpen(t, cfg, dir, durable.Options{})
	next := 0
	for _, cut := range append(cuts, len(steps)) {
		if i, err := applyUntilError(r, steps[:cut], next); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if next = cut; cut < len(steps) {
			r.Crash()
			r = mustOpen(t, cfg, dir, durable.Options{})
		}
	}
	return mustFinish(t, r)
}

func mustCommitted(t *testing.T, r *Runner) []string {
	t.Helper()
	out, err := r.Store().Committed()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDurableRestartResumesByteIdentical(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)
	// deltaEvery3 cuts mid-phase (suffix replay from the WAL), and the
	// windowed operators restore through the chains the engine cuts, a full
	// snapshot every third barrier and deltas between. deltaEvery0 cuts right
	// after every checkpoint, so each barrier is the first after a restore
	// and every snapshot on disk is a full one.
	var everyCheckpoint []int
	for i := afterCheckpoint(steps, 0); i < len(steps); i = afterCheckpoint(steps, i) {
		everyCheckpoint = append(everyCheckpoint, i)
	}
	for _, tc := range []struct {
		name      string
		cuts      []int
		wantDelta bool
	}{
		{"deltaEvery0", everyCheckpoint, false},
		{"deltaEvery3", []int{len(steps) / 3, 2 * len(steps) / 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			got := runWithRestarts(t, dir, steps, tc.cuts)
			assertSameOutput(t, got, want)
			if hasDelta := deltaOnDisk(t, dir); hasDelta != tc.wantDelta {
				t.Fatalf("cuts %v: a delta deposit on disk = %v, want %v", tc.cuts, hasDelta, tc.wantDelta)
			}

			// The output is in the directory, not in the incarnation that
			// produced it: one more incarnation, which ingests nothing, reads
			// back the same results.
			third := mustOpen(t, testConfig(nil), dir, durable.Options{})
			assertSameOutput(t, mustCommitted(t, third), got)
			third.Crash()
		})
	}
}

// deltaOnDisk reports whether any snapshot deposit under dir is a delta.
func deltaOnDisk(t *testing.T, dir string) bool {
	t.Helper()
	for _, path := range depositFiles(t, dir, "snap-") {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 && data[0] == spe.DeltaSnapshotMagic {
			return true
		}
	}
	return false
}

// depositFiles returns the snapshot deposit files under dir whose name has
// the prefix.
func depositFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "snap", prefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestDurableDeltaChainsOnDisk asserts the windowed operators persist
// deltas: deposits are classified by their leading byte, delta deposits are
// materially smaller than their full base, chains resolve through FetchChain,
// and a restore through a base+delta chain equals a full-snapshot restore.
func TestDurableDeltaChainsOnDisk(t *testing.T) {
	// A second aggregation and a second join over a window far longer than
	// the run keep every shared slice alive (a slice serving an unfired
	// window cannot evict), so the slice rings grow all run and a barrier
	// interval dirties only their newest few slices.
	long, longJoin := testQuery(core.KindAggregation), testQuery(core.KindJoin)
	long.Window, longJoin.Window = window.TumblingSpec(500), window.TumblingSpec(500)
	steps := workload(43, 8, 20, -1, testQuery(core.KindAggregation), long, testQuery(core.KindJoin), longJoin)
	want := cleanRun(t, steps)
	dir := t.TempDir()
	cfg := testConfig(nil)
	r := mustOpen(t, cfg, dir, durable.Options{})
	if i, err := applyUntilError(r, steps, 0); err != nil {
		t.Fatalf("step %d: %v", i, err)
	}

	// Eight checkpoints give a windowed operator the chain shape
	// F d d F d d F d: barrier 8 is a delta anchored at barrier 7's full
	// snapshot, and the store retains both.
	k, ok := r.Store().LatestComplete()
	if !ok || k != 8 {
		t.Fatalf("LatestComplete = %d,%v, want 8", k, ok)
	}
	for _, op := range []string{"aggregate", "join-0"} {
		var fullSize, deltaSize int
		for barrier, wantDelta := range map[uint64]bool{7: false, 8: true} {
			paths := depositFiles(t, dir, fmt.Sprintf("snap-%016x-%s-0", barrier, op))
			if len(paths) != 1 {
				t.Fatalf("barrier %d: %s[0] deposits on disk: %v", barrier, op, paths)
			}
			data, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if isDelta := data[0] == spe.DeltaSnapshotMagic; isDelta != wantDelta {
				t.Fatalf("barrier %d: %s[0] deposit is delta=%v, want %v", barrier, op, isDelta, wantDelta)
			}
			if wantDelta {
				deltaSize = len(data)
			} else {
				fullSize = len(data)
			}
		}
		if deltaSize*2 > fullSize {
			t.Fatalf("%s: delta deposit %dB vs full %dB: delta must persist only dirtied slices", op, deltaSize, fullSize)
		}
		chain, err := r.Store().FetchChain(k, op, 0)
		if err != nil || len(chain) != 2 {
			t.Fatalf("%s: chain at barrier %d has %d links (%v), want base+delta", op, k, len(chain), err)
		}
	}
	r.Crash()

	// Chain restore: the resumed runner must finish with output identical to
	// the clean run, which never restored.
	assertSameOutput(t, mustFinish(t, mustOpen(t, cfg, dir, durable.Options{})), want)
}

// TestDurableCorruptLatestFallsBack: when the newest checkpoint's deposits
// rot on disk, recovery demotes it and restores its predecessor, then re-cuts
// the demoted barrier at the same log offset during replay — output stays
// byte-identical, and the epoch that had committed together with the rotten
// checkpoint is exposed exactly once.
func TestDurableCorruptLatestFallsBack(t *testing.T) {
	defer noGoroutineLeft(t)()
	steps := chaosSteps()
	want := cleanRun(t, steps)
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"bad-crc", func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b }},
		{"trailing-bytes", func(b []byte) []byte { return append(b, 0xEE) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(nil)
			r := mustOpen(t, cfg, dir, durable.Options{})
			cut := 2 * len(steps) / 3
			if i, err := applyUntilError(r, steps[:cut], 0); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			k, ok := r.Store().LatestComplete()
			if !ok || k < 2 {
				t.Fatalf("need >= 2 completed checkpoints, have %d", k)
			}
			committed := mustCommitted(t, r)
			r.Crash()
			damageDeposit(t, dir, k, tc.damage)

			r2 := mustOpen(t, cfg, dir, durable.Options{})
			// The rotten checkpoint was demoted persistently, then re-cut
			// during replay at its original offset.
			if k2, ok := r2.Store().LatestComplete(); !ok || k2 != k {
				t.Fatalf("latest = %d,%v after fallback+replay, want %d re-cut", k2, ok, k)
			}
			// Epoch k-1 committed with checkpoint k; the fallback regenerated
			// it, and the regenerated copy was dropped.
			assertSameOutput(t, mustCommitted(t, r2), committed)
			if i, err := applyUntilError(r2, steps, cut); err != nil {
				t.Fatalf("post-recovery step %d: %v", i, err)
			}
			assertSameOutput(t, mustFinish(t, r2), want)
		})
	}
}

// damageDeposit rewrites one aggregate deposit of the barrier.
func damageDeposit(t *testing.T, dir string, barrier uint64, damage func([]byte) []byte) {
	t.Helper()
	paths := depositFiles(t, dir, fmt.Sprintf("snap-%016x-aggregate", barrier))
	if len(paths) == 0 {
		t.Fatalf("no aggregate deposit at barrier %d", barrier)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// hookFunc is a fault hook written as one function.
type hookFunc func(op durable.Op, path string, b []byte) ([]byte, error)

func (f hookFunc) Disk(op durable.Op, path string, b []byte) ([]byte, error) { return f(op, path, b) }

// TestDurableCrashBeforeManifestRename: a crash after the epoch's results and
// the manifest temp file are written but before the rename publishes them
// must leave the previous checkpoint authoritative: the successor exposes
// neither the interrupted checkpoint nor its epoch, and regenerates both.
func TestDurableCrashBeforeManifestRename(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)
	dir := t.TempDir()

	marks := 0
	hook := hookFunc(func(op durable.Op, path string, b []byte) ([]byte, error) {
		if op == durable.OpRename && filepath.Base(path) == "manifest" {
			if marks++; marks == 3 {
				return nil, fmt.Errorf("%w: third manifest rename", durable.ErrInjectedCrash)
			}
		}
		return b, nil
	})
	cfg := testConfig(nil)
	r := mustOpen(t, cfg, dir, durable.Options{Hook: hook})
	var committed []string // what the directory exposes after the last good mark
	i := 0
	for ; i < len(steps); i++ {
		if err := apply(r, steps[i]); err != nil {
			if steps[i].kind != stepCheckpoint || !errors.Is(err, durable.ErrInjectedCrash) {
				t.Fatalf("step %d failed unexpectedly: %v", i, err)
			}
			break
		}
		if steps[i].kind == stepCheckpoint {
			committed = mustCommitted(t, r)
		}
	}
	if i == len(steps) {
		t.Fatal("injected rename crash never fired")
	}
	// The interrupted mark's epoch reached the disk, fsynced, before the
	// crash: only the manifest decides whether it exists.
	if _, err := os.Stat(filepath.Join(dir, "out", fmt.Sprintf("out-%016x", 2))); err != nil {
		t.Fatalf("epoch 2 was not written before the manifest: %v", err)
	}
	r.Crash()

	r2 := mustOpen(t, cfg, dir, durable.Options{})
	if k, ok := r2.Store().LatestComplete(); !ok || k != 2 {
		t.Fatalf("latest after unpublished third mark = %d,%v, want the 2 published ones", k, ok)
	}
	assertSameOutput(t, mustCommitted(t, r2), committed)
	// The failed checkpoint step is retried (it logged nothing).
	if i, err := applyUntilError(r2, steps, i); err != nil {
		t.Fatalf("post-recovery step %d: %v", i, err)
	}
	assertSameOutput(t, mustFinish(t, r2), want)
}

// latestOnDisk reads the latest completed checkpoint from a second store on
// the directory.
func latestOnDisk(t *testing.T, dir string) uint64 {
	t.Helper()
	s, err := durable.OpenStore(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := s.LatestComplete()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestOpenDemotesOnlyBadCheckpoints: a failed Open invalidates a checkpoint
// only for what the checkpoint did wrong. A config the engine rejects and an
// injected kill that comes due while the suffix replays say nothing about the
// deposits, so the manifest stays as it was; a rotten deposit does demote.
func TestOpenDemotesOnlyBadCheckpoints(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)
	dir := t.TempDir()
	cfg := testConfig(nil)
	r := mustOpen(t, cfg, dir, durable.Options{})
	cut := 2 * len(steps) / 3 // past the third checkpoint, inside phase 3
	if i, err := applyUntilError(r, steps[:cut], 0); err != nil {
		t.Fatalf("step %d: %v", i, err)
	}
	r.Crash()
	if k := latestOnDisk(t, dir); k != 3 {
		t.Fatalf("latest = %d before any failed open, want 3", k)
	}

	bad := cfg
	bad.Streams = 9
	if _, err := Open(bad, dir, durable.Options{}); err == nil || errors.Is(err, errBadCheckpoint) {
		t.Fatalf("open with 9 streams: %v", err)
	}
	if k := latestOnDisk(t, dir); k != 3 {
		t.Fatalf("a rejected config demoted the latest checkpoint to %d", k)
	}

	// Rot checkpoint 3, and schedule a kill for the first tuple the suffix
	// replays into select-0[0]. The open falls back to checkpoint 2 — that
	// demotion is earned — and replays towards the re-cut of barrier 3, which
	// the dead instance never passes. That failure is not checkpoint 2's.
	damageDeposit(t, dir, 3, func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b })
	plan := fault.NewPlan(fault.Op{Kind: fault.KillAfterTuples, Op: "select-0", Instance: 0, N: 1})
	if _, err := Open(testConfig(plan), dir, durable.Options{}); err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("open with a kill due during replay: %v", err)
	}
	if len(plan.Fired()) != 1 {
		t.Fatalf("injections: %v, want the one kill", plan.Fired())
	}
	if k := latestOnDisk(t, dir); k != 2 {
		t.Fatalf("latest = %d after one rotten checkpoint and one kill during replay, want 2", k)
	}

	// The kill is spent: the next open succeeds, re-cuts barrier 3, and the
	// run finishes byte-identical.
	r2 := mustOpen(t, testConfig(plan), dir, durable.Options{})
	if k, _ := r2.Store().LatestComplete(); k != 3 {
		t.Fatalf("latest = %d after replay re-cut, want 3", k)
	}
	if i, err := applyUntilError(r2, steps, cut); err != nil {
		t.Fatalf("post-recovery step %d: %v", i, err)
	}
	assertSameOutput(t, mustFinish(t, r2), want)
}

// TestBadCheckpointSentinel: a snapshot chain that does not resolve, a
// control blob that does not decode and an engine control snapshot the
// engine does not restore wrap errBadCheckpoint; an intact
// checkpoint restores. (The third wrap site, an operator Restore rejecting
// bytes that passed their CRC, has no directed case.)
func TestBadCheckpointSentinel(t *testing.T) {
	defer noGoroutineLeft(t)()
	steps := chaosSteps()
	cfg := testConfig(nil)
	build := func(t *testing.T) string {
		dir := t.TempDir()
		r := mustOpen(t, cfg, dir, durable.Options{})
		if i, err := applyUntilError(r, steps[:len(steps)/2], 0); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		r.Crash()
		return dir
	}
	attempt := func(t *testing.T, dir string) error {
		s, err := durable.OpenStore(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRunner(cfg, s)
		if err == nil {
			r.Crash()
			return nil
		}
		if cerr := s.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		return err
	}
	t.Run("intact", func(t *testing.T) {
		if err := attempt(t, build(t)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("missing-deposit", func(t *testing.T) { // FetchChain
		dir := build(t)
		for _, p := range depositFiles(t, dir, fmt.Sprintf("snap-%016x-join-0", latestOnDisk(t, dir))) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := attempt(t, dir); !errors.Is(err, errBadCheckpoint) {
			t.Fatalf("missing deposit: %v", err)
		}
	})
	t.Run("undecodable-engine-control", func(t *testing.T) { // RestoreControl
		dir := build(t)
		rewriteControls(t, dir, func(blob []byte) {
			_, eng, err := splitControlBlob(blob)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)-len(eng)] ^= 0xFF // the engine snapshot's version byte
		})
		if err := attempt(t, dir); !errors.Is(err, errBadCheckpoint) {
			t.Fatalf("undecodable engine control snapshot: %v", err)
		}
	})
	t.Run("undecodable-control", func(t *testing.T) { // control blob
		dir := build(t)
		path := filepath.Join(dir, "manifest")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Control blobs are base64 in the JSON manifest; "Ag" opens every one
		// (version byte 2). Version 3 still parses as JSON and as base64.
		mangled := strings.ReplaceAll(string(data), `"Control":"Ag`, `"Control":"Aw`)
		if mangled == string(data) {
			t.Fatal("manifest holds no control blob to mangle")
		}
		if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := attempt(t, dir); !errors.Is(err, errBadCheckpoint) || !strings.Contains(err.Error(), "control blob version") {
			t.Fatalf("undecodable control blob: %v", err)
		}
	})
}

// rewriteControls rewrites every control blob the manifest holds in place.
func rewriteControls(t *testing.T, dir string, edit func(blob []byte)) {
	t.Helper()
	path := filepath.Join(dir, "manifest")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, b := range m["Barriers"].([]any) {
		mb := b.(map[string]any)
		blob, err := base64.StdEncoding.DecodeString(mb["Control"].(string))
		if err != nil {
			t.Fatal(err)
		}
		edit(blob)
		mb["Control"] = base64.StdEncoding.EncodeToString(blob)
	}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRejectsRecordsThatDoNotApply: the runner logs only what the
// engine accepts, but a log holding a record that does not apply — a query
// the engine rejects, a stop of a stopped query, a tuple for a stream the
// job lacks — fails the open with the record's error instead of hanging on
// it or skipping it.
func TestReplayRejectsRecordsThatDoNotApply(t *testing.T) {
	bad := testQuery(core.KindAggregation)
	bad.Arity = 3
	for _, tc := range []struct {
		name string
		recs []durable.Record
		want string
	}{
		{"rejected-query", []durable.Record{{Kind: durable.RecSubmit, Query: bad}}, "arity"},
		{"stopped-query", []durable.Record{
			{Kind: durable.RecSubmit, Query: testQuery(core.KindAggregation)},
			{Kind: durable.RecStop, Ordinal: 1}, {Kind: durable.RecStop, Ordinal: 1},
		}, "not running"},
		{"no-ordinal", []durable.Record{{Kind: durable.RecStop, Ordinal: 1}}, "ordinal"},
		{"no-stream", []durable.Record{{Kind: durable.RecTuple, Stream: 2}}, "stream"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := durable.OpenStore(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range tc.recs {
				if _, err := s.WAL().Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				r, err := Open(testConfig(nil), dir, durable.Options{})
				if err == nil {
					r.Crash()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("open replaying %v: %v", tc.recs, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("open hangs replaying a record that does not apply")
			}
		})
	}
}
