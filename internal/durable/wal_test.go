package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"astream/internal/event"
)

func walRecord(i int) Record {
	tu := event.Tuple{Key: int64(i % 5), Time: event.Time(i + 1)}
	tu.Fields[0] = int64(i * 7)
	return Record{Kind: RecTuple, Stream: i % 2, Tuple: tu}
}

// appendN appends records [from, from+n) and syncs.
func appendN(t *testing.T, w *WAL, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		off, err := w.Append(walRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if off != i {
			t.Fatalf("append %d returned offset %d", i, off)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segPrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestWALRoundTripAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 256, disk{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("expected multiple segments at 256-byte roll, got %d", n)
	}
	w2, err := openWAL(dir, 256, disk{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Len() != 40 {
		t.Fatalf("reopened Len %d, want 40", w2.Len())
	}
	want := make([]Record, 40)
	for i := range want {
		want[i] = walRecord(i)
	}
	if got := w2.Slice(0, 40); !reflect.DeepEqual(got, want) {
		t.Fatal("records diverged across reopen")
	}
	// Appending after reopen continues the absolute numbering.
	off, err := w2.Append(walRecord(40))
	if err != nil || off != 40 {
		t.Fatalf("post-reopen append: off=%d err=%v", off, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"short-frame", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-crc", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := openWAL(dir, 1<<20, disk{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 0, 10)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			names := segFiles(t, dir)
			tc.tear(t, filepath.Join(dir, names[len(names)-1]))
			w2, err := openWAL(dir, 1<<20, disk{})
			if err != nil {
				t.Fatalf("torn tail must be recoverable: %v", err)
			}
			if w2.Len() != 9 {
				t.Fatalf("Len %d after torn tail, want 9", w2.Len())
			}
			// The torn record is gone; the survivors are intact and the log
			// accepts appends at the reclaimed offset.
			want := make([]Record, 9)
			for i := range want {
				want[i] = walRecord(i)
			}
			if got := w2.Slice(0, 9); !reflect.DeepEqual(got, want) {
				t.Fatal("surviving records diverged after tail truncation")
			}
			if off, err := w2.Append(walRecord(9)); err != nil || off != 9 {
				t.Fatalf("append after truncation: off=%d err=%v", off, err)
			}
		})
	}
}

func TestWALSealedCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 256, disk{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names := segFiles(t, dir)
	if len(names) < 2 {
		t.Fatalf("need multiple segments, got %d", len(names))
	}
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(dir, 256, disk{}); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("sealed-segment corruption must fail open loudly, got %v", err)
	}
}

func TestWALTruncateDropsWholeSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 256, disk{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 40)
	before := len(segFiles(t, dir))
	if err := w.Truncate(30); err != nil {
		t.Fatal(err)
	}
	after := len(segFiles(t, dir))
	if after >= before {
		t.Fatalf("truncate removed nothing (%d -> %d segments)", before, after)
	}
	if db := w.DiskBase(); db > 30 {
		t.Fatalf("disk base %d exceeds the keep-from offset 30", db)
	}
	// The in-memory mirror still serves the full range this incarnation saw.
	if got := w.Slice(0, 40); len(got) != 40 {
		t.Fatalf("mirror lost records: %d", len(got))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the base is now the oldest surviving segment, and slicing below
	// it panics (recovery validates coverage before replaying).
	w2, err := openWAL(dir, 256, disk{})
	if err != nil {
		t.Fatal(err)
	}
	if w2.base == 0 || w2.base > 30 {
		t.Fatalf("reopened base %d, want in (0,30]", w2.base)
	}
	if w2.Len() != 40 {
		t.Fatalf("reopened Len %d, want 40", w2.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("slice below truncation point did not panic")
			}
		}()
		w2.Slice(0, 40)
	}()
}

// TestWALRejectsForeignSegments: a segment whose name carries no record
// index, and a frame whose CRC verifies over bytes that are no record, fail
// the open loudly — neither is a torn write.
func TestWALRejectsForeignSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segPrefix+"zz"+segSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(dir, 256, disk{}); err == nil || !strings.Contains(err.Error(), "unparseable") {
		t.Fatalf("segment named without an index: %v", err)
	}

	dir = t.TempDir()
	payload := []byte{0xEE, 1, 2}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 0, segSuffix)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(dir, 256, disk{}); err == nil || !strings.Contains(err.Error(), "did not decode") {
		t.Fatalf("frame that passes its CRC but is no record: %v", err)
	}
}

// TestWALDropsEmptyTailSegment: a segment created by a roll whose first
// append never landed is removed at open — its name would collide with the
// next segment's — and an open that cannot remove it fails.
func TestWALDropsEmptyTailSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1<<20, disk{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 3, segSuffix))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failRemove := hookFunc(func(op Op, _ string, b []byte) ([]byte, error) {
		if op == OpRemove {
			return nil, ErrInjectedCrash
		}
		return b, nil
	})
	if _, err := openWAL(dir, 1<<20, disk{hook: failRemove}); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("open that could not remove the empty tail segment: %v", err)
	}
	w2, err := openWAL(dir, 1<<20, disk{})
	if err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); w2.Len() != 3 || len(got) != 1 {
		t.Fatalf("after reopen: %d records in %v", w2.Len(), got)
	}
}
