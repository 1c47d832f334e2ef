package durable

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMarkCompleteRefusesIncompleteBarrier pins the commit-ordering contract
// of the one store: a completion mark is only committable once the barrier
// was awaited, every expected (op, instance) deposit is in, every earlier
// barrier is marked, and the result epoch the barrier closes is on disk. A
// mark published early would name a checkpoint recovery cannot restore, or
// lose an epoch.
func TestMarkCompleteRefusesIncompleteBarrier(t *testing.T) {
	s, err := OpenStore(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkComplete(1, []byte{9}, 0); err == nil || !strings.Contains(err.Error(), "awaited") {
		t.Fatalf("mark before await accepted: %v", err)
	}

	s.OnSnapshot("agg", 0, 1, []byte{1, 2, 3})
	// Arm the expectation at two deposits while only one arrived: fail the
	// wait so Await returns without blocking, then try to mark.
	s.Fail(errors.New("instance died"))
	if err := s.Await(1, 2); err == nil {
		t.Fatal("await did not surface the failure")
	}
	if err := s.MarkComplete(1, []byte{9}, 0); err == nil || !strings.Contains(err.Error(), "1 of 2 expected deposits") {
		t.Fatalf("mark with missing deposit accepted: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A store that saw no failure, for the rest of the ordering.
	if s, err = OpenStore(t.TempDir(), Options{}); err != nil {
		t.Fatal(err)
	}
	await := func(barrier uint64) {
		t.Helper()
		s.OnSnapshot("agg", 0, barrier, []byte{1, 2, 3})
		s.OnSnapshot("agg", 1, barrier, []byte{4, 5, 6})
		if err := s.Await(barrier, 2); err != nil {
			t.Fatal(err)
		}
	}
	await(1)
	if err := s.MarkComplete(1, []byte{9}, 0); err == nil || !strings.Contains(err.Error(), "result epoch 0") {
		t.Fatalf("mark without the epoch's output accepted: %v", err)
	}
	if err := s.CommitOutput(1, nil); err == nil || !strings.Contains(err.Error(), "epochs before it") {
		t.Fatalf("result epoch 1 committed before epoch 0: %v", err)
	}
	if err := s.CommitOutput(0, []string{"r0"}); err != nil {
		t.Fatal(err)
	}
	await(2)
	if err := s.CommitOutput(1, []string{"r1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkComplete(2, []byte{9}, 0); err == nil || !strings.Contains(err.Error(), "barriers before it") {
		t.Fatalf("barrier 2 marked before barrier 1: %v", err)
	}
	if k, ok := s.LatestComplete(); ok {
		t.Fatalf("refused marks completed checkpoint %d", k)
	}
	if err := s.MarkComplete(1, []byte{9}, 0); err != nil {
		t.Fatalf("complete barrier refused: %v", err)
	}
	if err := s.MarkComplete(2, []byte{9}, 0); err != nil {
		t.Fatalf("complete barrier refused: %v", err)
	}
	if k, ok := s.LatestComplete(); !ok || k != 2 {
		t.Fatalf("LatestComplete = %d,%v after mark", k, ok)
	}
	if got, err := s.Committed(); err != nil || !reflect.DeepEqual(got, []string{"r0", "r1"}) {
		t.Fatalf("Committed = %v, %v", got, err)
	}
}

// TestStoreSurvivesReopen: a completed checkpoint and its result epoch,
// written by one store incarnation, are fully readable by the next; deposits
// of a never-completed barrier and a result epoch no manifest published are
// swept at open, and the epoch is not exposed.
func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.OnSnapshot("agg", 0, 1, []byte{1, 10, 20})
	if err := s.Await(1, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.WAL().Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CommitOutput(0, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkComplete(1, []byte{0xC0}, 5); err != nil {
		t.Fatal(err)
	}
	// Orphans: a deposit for barrier 2 and the output of epoch 1, neither
	// published by a manifest.
	s.OnSnapshot("agg", 0, 2, []byte{1, 99})
	if err := s.CommitOutput(1, []string{"lost"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k, ok := s2.LatestComplete(); !ok || k != 1 {
		t.Fatalf("LatestComplete = %d,%v across reopen", k, ok)
	}
	chain, err := s2.FetchChain(1, "agg", 0)
	if err != nil || len(chain) != 1 || !bytes.Equal(chain[0], []byte{1, 10, 20}) {
		t.Fatalf("FetchChain across reopen = %v, %v", chain, err)
	}
	ctrl, ok := s2.Control(1)
	if !ok || !bytes.Equal(ctrl, []byte{0xC0}) {
		t.Fatalf("Control across reopen = %v,%v", ctrl, ok)
	}
	if got := s2.Offsets(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Offsets across reopen = %v", got)
	}
	if got, err := s2.Committed(); err != nil || !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Committed across reopen = %v, %v", got, err)
	}
	if _, err := s2.FetchChain(2, "agg", 0); !errors.Is(err, ErrDamaged) {
		t.Fatalf("never-completed barrier resolved after reopen: %v", err)
	}
	for _, sub := range []string{snapDirName, outDirName} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("orphan sweep left %d files in %s", len(entries), sub)
		}
	}
	// The swept epoch commits again, with what replay regenerates.
	if err := s2.CommitOutput(1, []string{"regenerated"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.PublishOutput(); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Committed(); err != nil || !reflect.DeepEqual(got, []string{"a", "b", "regenerated"}) {
		t.Fatalf("Committed after re-commit = %v, %v", got, err)
	}
}

// TestFetchChainRejectsDamagedDeposits: a deposit that rotted (CRC) or grew
// (trailing bytes) fails chain resolution so recovery falls back; a result
// epoch in the same state fails Committed loudly.
func TestFetchChainRejectsDamagedDeposits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"flipped-byte", func(b []byte) []byte { b[1] ^= 0xFF; return b }},
		{"trailing-bytes", func(b []byte) []byte { return append(b, 0xEE, 0xEE) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.OnSnapshot("agg", 0, 1, []byte{1, 10, 20, 30})
			if err := s.Await(1, 1); err != nil {
				t.Fatal(err)
			}
			if err := s.CommitOutput(0, []string{"a"}); err != nil {
				t.Fatal(err)
			}
			if err := s.MarkComplete(1, []byte{0xC0}, 0); err != nil {
				t.Fatal(err)
			}
			for _, sub := range []string{snapDirName, outDirName} {
				entries, err := os.ReadDir(filepath.Join(dir, sub))
				if err != nil || len(entries) != 1 {
					t.Fatalf("%s holds %d files, err %v", sub, len(entries), err)
				}
				path := filepath.Join(dir, sub, entries[0].Name())
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.FetchChain(1, "agg", 0); !errors.Is(err, ErrDamaged) {
				t.Fatalf("damaged deposit resolved: %v", err)
			}
			if out, err := s.Committed(); err == nil {
				t.Fatalf("damaged result epoch read back as %v", out)
			}
		})
	}
}

// markOne completes barrier k on s with one deposit, epoch k-1 and the log
// as it stands.
func markOne(t *testing.T, s *Store, k uint64) {
	t.Helper()
	s.OnSnapshot("agg", 0, k, []byte{1, byte(k)})
	if err := s.Await(k, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitOutput(k-1, []string{fmt.Sprint(k)}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkComplete(k, []byte{0xC0}, s.WAL().Len()); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStoreRejectsDamagedDirectories: a manifest that does not parse, and
// a log that lost records a completed checkpoint covers, fail the open with
// their own error instead of opening a store that cannot recover.
func TestOpenStoreRejectsDamagedDirectories(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{\"Version\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{}); err == nil || !strings.Contains(err.Error(), "manifest corrupt") {
		t.Fatalf("open with an unparseable manifest: %v", err)
	}

	dir = t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.WAL().Append(walRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	markOne(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, walDirName, segPrefix+"*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenStore(dir, Options{}); err == nil || !strings.Contains(err.Error(), "covers 5 log records") {
		t.Fatalf("open with the covered log gone: %v", err)
	}
}

// TestInvalidateLatestKeepsCoverage: demoting past the oldest checkpoint the
// truncated log still covers is refused, and the manifest keeps naming the
// checkpoint it had.
func TestInvalidateLatestKeepsCoverage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		for i := 0; i < 4; i++ {
			if _, err := s.WAL().Append(walRecord(s.WAL().Len())); err != nil {
				t.Fatal(err)
			}
		}
		markOne(t, s, k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenStore(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if s.WAL().DiskBase() == 0 {
		t.Fatal("the log was not truncated below checkpoint 2")
	}
	if err := s.InvalidateLatest(); err != nil {
		t.Fatalf("demoting checkpoint 3 to 2: %v", err)
	}
	if err := s.InvalidateLatest(); err == nil || !strings.Contains(err.Error(), "no completed checkpoint") {
		t.Fatalf("demoting checkpoint 2 past the truncated log: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k, _ := s2.LatestComplete(); k != 2 {
		t.Fatalf("latest %d after a refused demotion, want 2", k)
	}
}

// TestCommittedRejectsUndecodableEpoch: a result epoch whose bytes match the
// manifest but do not decode fails Committed.
func TestCommittedRejectsUndecodableEpoch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{0xFF, 0xFF}
	if err := os.WriteFile(filepath.Join(dir, outDirName, outName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s.outputs = append(s.outputs, manifestOutput{Size: int64(len(data)), CRC: crc32.Checksum(data, castagnoli)})
	if err := s.PublishOutput(); err != nil {
		t.Fatal(err)
	}
	if out, err := s.Committed(); err == nil || !strings.Contains(err.Error(), "result epoch 0") {
		t.Fatalf("undecodable epoch read back as %v, %v", out, err)
	}
}
