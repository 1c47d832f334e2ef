package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"astream/internal/wire/wiretest"
)

// FuzzDecodeRecord: arbitrary bytes yield an error or a record that
// re-encodes to exactly those bytes — what the WAL relies on when a frame
// passes its CRC.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range testRecords() {
		enc := AppendRecord(nil, &rec)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(enc, 0xEE))
	}
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			rec, err := DecodeRecord(in)
			if err != nil {
				return
			}
			if back := AppendRecord(nil, &rec); !bytes.Equal(back, in) && len(back) >= len(in) {
				// Only a non-canonical query-set may re-encode shorter.
				t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}

// FuzzDecodeSegment: the WAL's frame scanner, as the final segment (a bad
// tail is the truncation point) and as a sealed one (a bad frame is an
// error). Never a panic; the good prefix lies inside the input and decodes
// again to the same records; a frame length above frameMax or past the end of
// the input is rejected before anything is allocated for it.
func FuzzDecodeSegment(f *testing.F) {
	dir := f.TempDir()
	w, err := openWAL(dir, 1<<20, disk{})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range testRecords() {
		if _, err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, w.segs[0].name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, true)
	f.Add(seg, false)
	f.Add(seg[:len(seg)-3], true)
	f.Add(seg[:len(seg)-3], false)
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped, false)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, true) // frame length far beyond the input
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, false)            // zero-length frame
	f.Fuzz(func(t *testing.T, in []byte, last bool) {
		wiretest.Bounded(t, in, func() {
			good, recs, err := decodeSegment(in, last)
			if good < 0 || good > len(in) {
				t.Fatalf("good prefix %d outside the %d input bytes", good, len(in))
			}
			if err == nil && !last && good != len(in) {
				t.Fatalf("sealed segment accepted with %d of %d bytes decoded", good, len(in))
			}
			again, recs2, err2 := decodeSegment(in[:good], false)
			if err2 != nil || again != good || !reflect.DeepEqual(recs2, recs) {
				t.Fatalf("good prefix does not decode to itself: %d/%d bytes, %d/%d records, err %v", again, good, len(recs2), len(recs), err2)
			}
		})
	})
}

// FuzzParseManifest: arbitrary bytes in the manifest's place yield an open
// error or a store whose every reader — coverage validation at open, Control
// and FetchChain for each retained deposit, Committed, InvalidateLatest down
// to no checkpoint at all — returns without panicking.
func FuzzParseManifest(f *testing.F) {
	dep := manifestDeposit{Op: "agg", Instance: 1, File: "snap-0000000000000002-agg-1", Size: 3, CRC: 7, Delta: true}
	full := dep
	full.File, full.Delta = "snap-0000000000000001-agg-1", false
	good, err := json.Marshal(manifestData{
		Version: manifestVersion, Latest: 2, Offsets: []int{0, 0, 0},
		Barriers: []manifestBarrier{
			{Barrier: 1, Control: []byte{1}, Deposits: []manifestDeposit{full}},
			{Barrier: 2, Control: []byte{2}, Deposits: []manifestDeposit{dep}},
		},
		Outputs: []manifestOutput{{Size: 4, CRC: 1}, {Size: 4, CRC: 2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"Version":4,"Latest":3,"Offsets":[1]}`))
	f.Add([]byte(`{"Version":4,"Latest":1,"Offsets":[-5],"Outputs":[{}]}`))
	f.Add([]byte(`{"Version":4,"Latest":1,"Offsets":[0],"Outputs":[{}],"Barriers":[{"Barrier":1,"Deposits":[{"File":"../../etc/passwd"}]}]}`))
	f.Add([]byte(`{"Version":4,"Latest":18446744073709551615}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := parseManifest(in)
		if err != nil {
			return
		}
		if m.Latest > uint64(len(m.Offsets)) || m.Latest > uint64(len(m.Outputs)) {
			t.Fatalf("accepted manifest indexes past its arrays: latest %d, %d offsets, %d outputs", m.Latest, len(m.Offsets), len(m.Outputs))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), in, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir, Options{})
		if err != nil {
			return
		}
		for _, mb := range m.Barriers {
			s.Control(mb.Barrier)
			for _, d := range mb.Deposits {
				if filepath.Dir(filepath.Join(s.snapDir, d.File)) != s.snapDir {
					t.Fatalf("accepted deposit file %q escapes the snapshot directory", d.File)
				}
				s.FetchChain(mb.Barrier, d.Op, d.Instance)
			}
		}
		s.Committed() // the files are absent; only a panic is a failure
		for s.InvalidateLatest() == nil {
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeOutput: the committed-result reader. Arbitrary bytes yield an
// error or the results that encode to exactly those bytes, with no length
// prefix trusted beyond the input.
func FuzzDecodeOutput(f *testing.F) {
	enc := appendOutput(nil, []string{"q1 agg w=[0,10) k=1 v=5", "", "q2 sel k=3"})
	f.Add(enc)
	f.Add(enc[:len(enc)-2])
	f.Add(append(enc, 0xEE))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // result count far beyond the input
	f.Fuzz(func(t *testing.T, in []byte) {
		wiretest.Bounded(t, in, func() {
			out, err := decodeOutput(in)
			if err != nil {
				return
			}
			if back := appendOutput(nil, out); !bytes.Equal(back, in) {
				t.Fatalf("accepted result epoch re-encodes differently:\n in %x\nout %x", in, back)
			}
		})
	})
}
