package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hookFunc is a fault hook written as one function.
type hookFunc func(op Op, path string, b []byte) ([]byte, error)

func (f hookFunc) Disk(op Op, path string, b []byte) ([]byte, error) { return f(op, path, b) }

// TestDiskReportsRealFailures: every wrapper of the seam returns the real
// failure of its os call — the same error an injected one stands in for.
func TestDiskReportsRealFailures(t *testing.T) {
	d := disk{hook: hookFunc(func(_ Op, _ string, b []byte) ([]byte, error) { return b, nil })}
	missing := filepath.Join(t.TempDir(), "missing", "x")
	_, readErr := d.readFile(missing)
	_, dirErr := d.readDir(missing)
	_, createErr := d.create(missing)
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"read-file", readErr},
		{"read-dir", dirErr},
		{"create", createErr},
		{"rename", d.rename(missing, missing+"2")},
		{"remove", d.remove(missing)},
		{"truncate", d.truncate(missing, 0)},
		{"sync-dir", d.syncDir(missing)},
		{"write-file-atomic", d.writeFileAtomic(missing, []byte{1})},
	} {
		if !errors.Is(tc.err, fs.ErrNotExist) {
			t.Errorf("%s on a missing path: %v, want a not-exist error", tc.name, tc.err)
		}
	}
	file := filepath.Join(t.TempDir(), "file")
	f, err := d.create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.close(f); err != nil {
		t.Fatal(err)
	}
	_, writeErr := d.write(f, []byte{1})
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"write", writeErr},
		{"sync", d.sync(f)},
		{"close", d.close(f)},
	} {
		if !errors.Is(tc.err, os.ErrClosed) {
			t.Errorf("%s on a closed file: %v, want os.ErrClosed", tc.name, tc.err)
		}
	}
	if err := d.mkdir(filepath.Join(file, "sub")); err == nil {
		t.Error("mkdir under a file succeeded")
	}
}

// TestWALPoisonedByFailedWrite: a write that fails part-way leaves torn bytes
// where the next frame would go, so the log acknowledges nothing after it —
// every later Append and Sync returns the failure — and a reopen finds
// exactly the records acknowledged before it, whether the torn frame sits in
// the only segment or in one a later roll would have sealed.
func TestWALPoisonedByFailedWrite(t *testing.T) {
	for _, segMax := range []int{1 << 20, 256} {
		t.Run(fmt.Sprint(segMax), func(t *testing.T) {
			dir := t.TempDir()
			writes := 0
			tear := hookFunc(func(op Op, _ string, b []byte) ([]byte, error) {
				if op == OpWrite {
					if writes++; writes == 3 {
						return b[:len(b)/2], ErrInjectedCrash
					}
				}
				return b, nil
			})
			w, err := openWAL(dir, segMax, disk{hook: tear})
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i := 0; i < 40; i++ {
				if _, err := w.Append(walRecord(acked)); err == nil {
					acked++
				} else if !errors.Is(err, ErrInjectedCrash) {
					t.Fatalf("append %d: %v, want the torn write's failure", i, err)
				}
			}
			if acked != 2 {
				t.Fatalf("%d appends acknowledged, want the 2 before the torn write", acked)
			}
			if err := w.Sync(); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("sync of a poisoned log: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := openWAL(dir, segMax, disk{})
			if err != nil {
				t.Fatalf("reopen after a torn write: %v", err)
			}
			if w2.Len() != acked {
				t.Fatalf("reopen found %d records, want the %d acknowledged", w2.Len(), acked)
			}
			if off, err := w2.Append(walRecord(acked)); err != nil || off != acked {
				t.Fatalf("append after reopen: off=%d err=%v", off, err)
			}
		})
	}
}

// TestWALDirectorySyncedBeforeManifest reads the seam's operation log: every
// WAL segment created — by a roll — or removed — by truncation below a
// checkpoint — has its directory entry made durable by a sync of wal/ before
// the next manifest is published, since that manifest counts the records the
// segments hold.
func TestWALDirectorySyncedBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, walDirName)
	var pending []string // segment entries not yet durable
	creates, removes, marks := 0, 0, 0
	log := hookFunc(func(op Op, path string, b []byte) ([]byte, error) {
		seg := strings.HasPrefix(filepath.Base(path), segPrefix)
		switch {
		case op == OpCreate && seg:
			creates++
			pending = append(pending, "created "+filepath.Base(path))
		case op == OpRemove && seg:
			removes++
			pending = append(pending, "removed "+filepath.Base(path))
		case op == OpSyncDir && path == walDir:
			pending = nil
		case op == OpRename && filepath.Base(path) == manifestName:
			marks++
			if len(pending) > 0 {
				t.Errorf("manifest %d published before %v were durable", marks, pending)
			}
		}
		return b, nil
	})
	s, err := OpenStore(dir, Options{Hook: log, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	// The fifth checkpoint appends nothing: only the segments the fourth
	// truncated away have changed the directory since.
	for k := uint64(1); k <= 5; k++ {
		for i := 0; k < 5 && i < 8; i++ {
			if _, err := s.WAL().Append(walRecord(s.WAL().Len())); err != nil {
				t.Fatal(err)
			}
		}
		s.OnSnapshot("agg", 0, k, []byte{1, byte(k)})
		if err := s.Await(k, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitOutput(k-1, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.MarkComplete(k, nil, s.WAL().Len()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if creates < 4 || removes == 0 || marks != 5 {
		t.Fatalf("%d segments created, %d removed, %d manifests: the log must roll and truncate between marks", creates, removes, marks)
	}
}
