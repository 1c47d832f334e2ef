package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// castagnoli is the CRC32C table every frame and deposit checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	frameHeader = 8 // u32 payload length | u32 CRC32C(payload)
	frameMax    = 16 << 20

	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes is
	// zero. Segments roll so truncation below the last-covered checkpoint can
	// reclaim disk by deleting whole files instead of rewriting one.
	DefaultSegmentBytes = 256 << 10
)

// segInfo tracks one on-disk segment: its file name, the absolute index of
// its first record, and how many complete frames it holds.
type segInfo struct {
	name  string
	base  int
	count int
}

// WAL is the durable input log: an append-only sequence of CRC32C-framed
// Records split across segment files named by the absolute index
// of their first record. Appends are buffered by the OS and fsynced only at
// checkpoint boundaries (Store.MarkComplete); the tail written since the last
// sync is allowed to tear on crash, because the runner replays acknowledged
// records only up to offsets covered by a completed checkpoint.
//
// Reopen scans every segment: a bad frame at the tail of the final segment is
// a torn write and is truncated away; a bad frame anywhere else means a
// sealed, previously-fsynced region rotted, and open fails loudly rather than
// silently dropping acknowledged history.
//
// A WAL is single-writer: the runner appends, checkpoints, and truncates from
// one goroutine, so no locking is done here.
type WAL struct {
	dir    string
	hook   Hook
	segMax int

	// base is the absolute index of the first record retained on disk at
	// open; recs mirrors every record from base onward so Slice can serve
	// replays without touching disk.
	base int
	recs []Record
	segs []segInfo

	f     *os.File // current segment, nil until first append after open/roll
	fname string
	fsize int

	//lint:pooled scratch frame-encode buffer recycled across appends
	buf []byte
}

// openWAL opens dir, recovering from a torn tail and failing loudly on
// mid-log corruption.
func openWAL(dir string, segMax int, hook Hook) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, hook: hook, segMax: segMax}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		base, err := strconv.ParseUint(hexPart, 16, 63)
		if err != nil {
			return nil, fmt.Errorf("durable: unparseable wal segment name %q", name)
		}
		w.segs = append(w.segs, segInfo{name: name, base: int(base)})
	}
	sort.Slice(w.segs, func(i, j int) bool { return w.segs[i].base < w.segs[j].base })
	for i := range w.segs {
		si := &w.segs[i]
		path := filepath.Join(dir, si.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			w.base = si.base
		} else if si.base != w.base+len(w.recs) {
			return nil, fmt.Errorf("durable: wal segment %s starts at record %d, want %d (missing segment?)",
				si.name, si.base, w.base+len(w.recs))
		}
		last := i == len(w.segs)-1
		good, recs, err := decodeSegment(data, last)
		if err != nil {
			return nil, fmt.Errorf("durable: wal segment %s: %w", si.name, err)
		}
		if last && good < len(data) {
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, err
			}
		}
		si.count = len(recs)
		w.recs = append(w.recs, recs...)
	}
	// Drop trailing segments with no complete frame (created, then the
	// process died before the first append survived). Leaving them would
	// collide with the name of the next segment created at the same index.
	for n := len(w.segs); n > 0 && w.segs[n-1].count == 0; n = len(w.segs) {
		if err := os.Remove(filepath.Join(dir, w.segs[n-1].name)); err != nil {
			return nil, err
		}
		w.segs = w.segs[:n-1]
	}
	if len(w.segs) == 0 {
		// No segment survived, so there is no on-disk base marker: the log is
		// only usable from record zero.
		w.base, w.recs = 0, nil
	}
	return w, nil
}

// decodeSegment walks the frames in one segment. It returns the byte offset
// of the end of the last good frame and the decoded records. A bad frame —
// short header, implausible length, CRC mismatch — ends the scan: tolerated
// (returned as the truncation point) for the final segment's tail, an error
// for a sealed segment. A frame whose CRC verifies but whose payload does not
// decode is always an error: the bytes are intact, so the writer was broken.
func decodeSegment(data []byte, tolerateTail bool) (int, []Record, error) {
	good := 0
	var recs []Record
	for {
		rest := data[good:]
		if len(rest) == 0 {
			return good, recs, nil
		}
		bad := len(rest) < frameHeader
		if !bad {
			n := int(binary.LittleEndian.Uint32(rest))
			sum := binary.LittleEndian.Uint32(rest[4:])
			bad = n <= 0 || n > frameMax || len(rest) < frameHeader+n
			if !bad {
				payload := rest[frameHeader : frameHeader+n]
				if crc32.Checksum(payload, castagnoli) != sum {
					bad = true
				} else {
					rec, err := DecodeRecord(payload)
					if err != nil {
						return good, recs, fmt.Errorf("frame at byte %d passed CRC but did not decode: %w", good, err)
					}
					recs = append(recs, rec)
					good += frameHeader + n
					continue
				}
			}
		}
		if tolerateTail {
			return good, recs, nil
		}
		return good, recs, fmt.Errorf("corrupt frame at byte %d of a sealed segment", good)
	}
}

// Append adds a record and returns its absolute offset. The record is framed into the pooled
// scratch buffer and written to the current segment; the in-memory mirror and
// the returned absolute index advance only if the write fully succeeded, so a
// torn or failed write is never acknowledged.
func (w *WAL) Append(r Record) (int, error) {
	w.buf = append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	w.buf = AppendRecord(w.buf, &r)
	payload := w.buf[frameHeader:]
	binary.LittleEndian.PutUint32(w.buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.Checksum(payload, castagnoli))
	if w.f != nil && w.fsize+len(w.buf) > w.segMax {
		if err := w.roll(); err != nil {
			return 0, err
		}
	}
	if err := w.ensureSegment(); err != nil {
		return 0, err
	}
	towrite := w.buf
	var inject error
	if w.hook != nil {
		towrite, inject = w.hook.BeforeWrite(w.fname, w.buf)
	}
	if len(towrite) > 0 {
		n, err := w.f.Write(towrite)
		w.fsize += n
		if err != nil {
			return 0, err
		}
	}
	if inject != nil {
		return 0, inject
	}
	w.recs = append(w.recs, r)
	w.segs[len(w.segs)-1].count++
	return w.base + len(w.recs) - 1, nil
}

// Len returns the absolute index one past the last acknowledged record.
func (w *WAL) Len() int { return w.base + len(w.recs) }

// Slice returns records [from, to) from the in-memory mirror. Offsets below
// the open-time base were truncated and are gone for good; asking for them is
// a bug (the store validates coverage before any replay).
func (w *WAL) Slice(from, to int) []Record {
	if from < w.base {
		panic(fmt.Sprintf("durable: wal slice [%d,%d) below truncation point %d", from, to, w.base))
	}
	out := make([]Record, to-from)
	copy(out, w.recs[from-w.base:to-w.base])
	return out
}

// Sync fsyncs the current segment. Called by the store when a checkpoint
// completes: everything at or below the checkpoint's offset becomes durable
// before the completion mark is published.
func (w *WAL) Sync() error {
	if w.f == nil {
		return nil
	}
	if w.hook != nil {
		if err := w.hook.BeforeSync(w.fname); err != nil {
			return err
		}
	}
	return w.f.Sync()
}

// Truncate deletes segments that lie entirely below keepFrom — the replay
// offset of the checkpoint before the latest, the oldest point recovery can
// ever need. The final segment is never deleted: its name carries the log's
// base index across reopen.
func (w *WAL) Truncate(keepFrom int) error {
	for len(w.segs) > 1 && w.segs[0].base+w.segs[0].count <= keepFrom {
		if err := os.Remove(filepath.Join(w.dir, w.segs[0].name)); err != nil {
			return err
		}
		w.segs = w.segs[1:]
	}
	return nil
}

// DiskBase reports the absolute index of the first record still on disk —
// what base would be after a crash and reopen right now.
func (w *WAL) DiskBase() int {
	if len(w.segs) == 0 {
		return w.Len()
	}
	return w.segs[0].base
}

// roll seals the current segment: whatever it holds is fsynced so the next
// open never finds a torn frame in a non-final segment.
func (w *WAL) roll() error {
	if w.f == nil {
		return nil
	}
	if err := w.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	return nil
}

func (w *WAL) ensureSegment() error {
	if w.f != nil {
		return nil
	}
	base := w.base + len(w.recs)
	name := fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
	path := filepath.Join(w.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w.f, w.fname, w.fsize = f, path, 0
	w.segs = append(w.segs, segInfo{name: name, base: base})
	return nil
}

// Close seals the log. Safe to call on a log that never appended.
func (w *WAL) Close() error { return w.roll() }
