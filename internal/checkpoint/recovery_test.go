package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// operators restore from deposit files (full snapshots or base+delta chains
// when SnapshotDeltaEvery is set).

// runWithRestarts drives steps on dir, crashing the incarnation at each index
// in cuts and reopening.
func runWithRestarts(t *testing.T, dir string, deltaEvery int, steps []step, cuts []int) []string {
	t.Helper()
	cfg := testConfig(nil, deltaEvery)
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
	// Cut mid-phase (suffix replay from the WAL) and right after a
	// checkpoint, for both full-only and incremental snapshots.
	for _, deltaEvery := range []int{0, 3} {
		t.Run(fmt.Sprintf("deltaEvery%d", deltaEvery), func(t *testing.T) {
			dir := t.TempDir()
			cuts := []int{len(steps) / 3, 2 * len(steps) / 3}
			got := runWithRestarts(t, dir, deltaEvery, steps, cuts)
			assertSameOutput(t, got, want)

			// The output is in the directory, not in the incarnation that
			// produced it: one more incarnation, which ingests nothing, reads
			// back the same results.
			third := mustOpen(t, testConfig(nil, deltaEvery), dir, durable.Options{})
			assertSameOutput(t, mustCommitted(t, third), got)
			third.Crash()
		})
	}
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

// TestDurableDeltaChainsOnDisk asserts the incremental path actually persists
// deltas: deposits are classified by their leading byte, delta deposits are
// materially smaller than their full base, chains resolve through FetchChain,
// and a restore through a base+delta chain equals a full-snapshot restore.
func TestDurableDeltaChainsOnDisk(t *testing.T) {
	// A second aggregation over a window far longer than the run keeps every
	// shared slice alive (a slice serving an unfired window cannot evict), so
	// the slice ring grows all run and a barrier interval dirties only its
	// newest few slices.
	long := testQuery(core.KindAggregation)
	long.Window = window.TumblingSpec(500)
	steps := workload(43, 8, 20, -1, testQuery(core.KindAggregation), long)
	want := cleanRun(t, steps)
	dir := t.TempDir()
	cfg := testConfig(nil, 3)
	r := mustOpen(t, cfg, dir, durable.Options{})
	if i, err := applyUntilError(r, steps, 0); err != nil {
		t.Fatalf("step %d: %v", i, err)
	}

	// Eight checkpoints at fullEvery=3 give the aggregation the chain shape
	// F d d F d d F d: barrier 8 is a delta anchored at barrier 7's full
	// snapshot, and the store retains both.
	k, ok := r.Store().LatestComplete()
	if !ok || k != 8 {
		t.Fatalf("LatestComplete = %d,%v, want 8", k, ok)
	}
	var fullSize, deltaSize int
	for barrier, wantDelta := range map[uint64]bool{7: false, 8: true} {
		paths := depositFiles(t, dir, fmt.Sprintf("snap-%016x-aggregate-0", barrier))
		if len(paths) != 1 {
			t.Fatalf("barrier %d: aggregate[0] deposits on disk: %v", barrier, paths)
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if isDelta := data[0] == spe.DeltaSnapshotMagic; isDelta != wantDelta {
			t.Fatalf("barrier %d: aggregate[0] deposit is delta=%v, want %v", barrier, isDelta, wantDelta)
		}
		if wantDelta {
			deltaSize = len(data)
		} else {
			fullSize = len(data)
		}
	}
	if deltaSize*2 > fullSize {
		t.Fatalf("delta deposit %dB vs full %dB: delta must persist only dirtied slices", deltaSize, fullSize)
	}
	chain, ok := r.Store().FetchChain(k, "aggregate", 0)
	if !ok || len(chain) != 2 {
		t.Fatalf("chain at barrier %d has %d links, want base+delta", k, len(chain))
	}
	r.Crash()

	// Chain restore: the resumed runner must finish with output identical to
	// the clean run, which only ever took full snapshots.
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
			cfg := testConfig(nil, 0)
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

// renameHook is a fault hook that can crash chosen renames.
type renameHook struct {
	beforeRename func(from, to string) error
}

func (h *renameHook) BeforeWrite(_ string, b []byte) ([]byte, error) { return b, nil }
func (h *renameHook) BeforeSync(string) error                        { return nil }
func (h *renameHook) BeforeRename(from, to string) error             { return h.beforeRename(from, to) }

// TestDurableCrashBeforeManifestRename: a crash after the epoch's results and
// the manifest temp file are written but before the rename publishes them
// must leave the previous checkpoint authoritative: the successor exposes
// neither the interrupted checkpoint nor its epoch, and regenerates both.
func TestDurableCrashBeforeManifestRename(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)
	dir := t.TempDir()

	marks := 0
	hook := &renameHook{beforeRename: func(from, to string) error {
		if filepath.Base(to) == "manifest" {
			if marks++; marks == 3 {
				return durable.ErrInjectedCrash
			}
		}
		return nil
	}}
	cfg := testConfig(nil, 0)
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
	cfg := testConfig(nil, 0)
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
	if _, err := Open(testConfig(plan, 0), dir, durable.Options{}); err == nil || !strings.Contains(err.Error(), "injected fault") {
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
	r2 := mustOpen(t, testConfig(plan, 0), dir, durable.Options{})
	if k, _ := r2.Store().LatestComplete(); k != 3 {
		t.Fatalf("latest = %d after replay re-cut, want 3", k)
	}
	if i, err := applyUntilError(r2, steps, cut); err != nil {
		t.Fatalf("post-recovery step %d: %v", i, err)
	}
	assertSameOutput(t, mustFinish(t, r2), want)
}

// TestBadCheckpointSentinel: a snapshot chain that does not resolve and a
// control blob that does not decode wrap errBadCheckpoint; an intact
// checkpoint restores. (The third wrap site, an operator Restore rejecting
// bytes that passed their CRC, has no directed case.)
func TestBadCheckpointSentinel(t *testing.T) {
	defer noGoroutineLeft(t)()
	steps := chaosSteps()
	cfg := testConfig(nil, 0)
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
		if err := attempt(t, dir); !errors.Is(err, errBadCheckpoint) {
			t.Fatalf("undecodable control blob: %v", err)
		}
	})
}
