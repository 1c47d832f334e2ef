// Package wirefix is a lint fixture imported by other fixtures: a shared
// writer/reader living in its own package, the shape internal/wire has in
// the module. The snapshot-symmetry analyzer must learn its framing by
// inlining these bodies across the package boundary — the reader is the
// `b []byte` + `err error` idiom, recognized structurally, not by name.
package wirefix

import "errors"

var errShort = errors.New("short")

// Reader is the byte-reader idiom: remaining input plus a sticky error.
type Reader struct {
	b   []byte
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) Err() error { return r.err }

func (r *Reader) U8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.err = errShort
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *Reader) U32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = errShort
		return 0
	}
	v := uint32(r.b[0]) | uint32(r.b[1])<<8 | uint32(r.b[2])<<16 | uint32(r.b[3])<<24
	r.b = r.b[4:]
	return v
}

func (r *Reader) Take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.err = errShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func AppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendEach threads a payload writer through a parameter, the way the
// module's slicer encoder takes its per-slice payload: the literal comes
// from the caller's package, the loop from this one.
func AppendEach(b []byte, n int, payload func([]byte, int) []byte) []byte {
	b = AppendU32(b, uint32(n))
	for i := 0; i < n; i++ {
		b = payload(b, i)
	}
	return b
}

// ReadEach is AppendEach's decode side.
func ReadEach(r *Reader, payload func(*Reader, int)) {
	n := int(r.U32())
	for i := 0; i < n; i++ {
		payload(r, i)
	}
}
