// Package snapsym is a lint fixture: Restore must consume snapshot bytes
// in the exact shape Snapshot produces them. The byte-reader (the
// `b []byte` + `err error` idiom the analyzer recognizes) and the append
// helpers live in the sibling fixture package wirefix, mirroring how the
// module's operators frame their state through internal/wire: every shape
// below is only visible by inlining across the package boundary.
package snapsym

import "fixture/wirefix"

// Good frames symmetrically: byte, length-prefixed payload, uint32.
type Good struct {
	id  byte
	n   uint32
	pay []byte
}

func (g *Good) Snapshot() []byte {
	b := append([]byte(nil), g.id)
	b = wirefix.AppendU32(b, uint32(len(g.pay)))
	b = append(b, g.pay...)
	b = wirefix.AppendU32(b, g.n)
	return b
}

func (g *Good) Restore(data []byte) error {
	r := wirefix.NewReader(data)
	g.id = r.U8()
	n := r.U32()
	g.pay = r.Take(int(n))
	g.n = r.U32()
	return r.Err()
}

// Opt uses the presence-flag idiom on both sides; the terminal branch
// flattens away and the shapes agree.
type Opt struct {
	set bool
	v   uint32
}

func (o *Opt) Snapshot() []byte {
	if !o.set {
		return append([]byte(nil), 0)
	}
	b := append([]byte(nil), 1)
	return wirefix.AppendU32(b, o.v)
}

func (o *Opt) Restore(data []byte) error {
	r := wirefix.NewReader(data)
	if r.U8() == 0 {
		o.set = false
		return r.Err()
	}
	o.set = true
	o.v = r.U32()
	return r.Err()
}

// Swapped decodes its fields in the opposite order from the encoder.
type Swapped struct {
	id byte
	n  uint32
}

func (s *Swapped) Snapshot() []byte {
	b := append([]byte(nil), s.id)
	return wirefix.AppendU32(b, s.n)
}

func (s *Swapped) Restore(data []byte) error {
	r := wirefix.NewReader(data)
	s.n = uint32(r.U32()) // want "Restore decodes a 4-byte field where Snapshot encodes a 1-byte field .* asymmetric for Swapped"
	s.id = r.U8()
	return r.Err()
}

// Missing decodes one field fewer than the encoder wrote.
type Missing struct {
	a byte
	z uint32
}

func (m *Missing) Snapshot() []byte {
	b := append([]byte(nil), m.a)
	return wirefix.AppendU32(b, m.z)
}

func (m *Missing) Restore(data []byte) error { // want "Restore decodes nothing \(the shape ends\) where Snapshot encodes a 4-byte field .* asymmetric for Missing"
	r := wirefix.NewReader(data)
	m.a = r.U8()
	return r.Err()
}

// Looped reads a narrower element inside the repeated group than the
// encoder wrote; the divergence surfaces inside the loop bodies.
type Looped struct {
	vals []uint32
}

func (l *Looped) Snapshot() []byte {
	b := wirefix.AppendU32(nil, uint32(len(l.vals)))
	for _, v := range l.vals {
		b = wirefix.AppendU32(b, v)
	}
	return b
}

func (l *Looped) Restore(data []byte) error {
	r := wirefix.NewReader(data)
	n := int(r.U32())
	l.vals = l.vals[:0]
	for i := 0; i < n; i++ {
		l.vals = append(l.vals, uint32(r.U8())) // want "Restore decodes a 1-byte field where Snapshot encodes a 4-byte field .* asymmetric for Looped"
	}
	return r.Err()
}

// Each passes payload literals from this package through wirefix's loop
// helpers; the literal bodies resolve against this package while the loop
// resolves against wirefix. The decoder reads a narrower payload.
type Each struct {
	vals []uint32
}

func (e *Each) Snapshot() []byte {
	return wirefix.AppendEach(nil, len(e.vals), func(b []byte, i int) []byte {
		return wirefix.AppendU32(b, e.vals[i])
	})
}

func (e *Each) Restore(data []byte) error {
	r := wirefix.NewReader(data)
	e.vals = e.vals[:0]
	wirefix.ReadEach(r, func(r *wirefix.Reader, _ int) { // want "Restore decodes a 1-byte field where Snapshot encodes a 4-byte field .* asymmetric for Each"
		e.vals = append(e.vals, uint32(r.U8()))
	})
	return r.Err()
}
