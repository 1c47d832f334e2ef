package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"astream/internal/bitset"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
	"astream/internal/wire"
)

// depositSink keeps every snapshot deposit, keyed op/instance/barrier.
type depositSink struct {
	mu  sync.Mutex
	got map[string][]byte
}

func (s *depositSink) OnSnapshot(op string, instance int, barrier uint64, state []byte) {
	s.mu.Lock()
	s.got[fmt.Sprintf("%s/%d/%d", op, instance, barrier)] = state
	s.mu.Unlock()
}

// await waits until n deposits are in.
func (s *depositSink) await(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		have := len(s.got)
		s.mu.Unlock()
		if have >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d deposits arrived", have, n)
		}
	}
}

// TestRestoreOperatorsRejectsBadChains: RestoreOperators restores every
// operator instance from its chain — a full snapshot, then the deltas — and a
// chain whose full snapshot or delta does not restore, for any one instance,
// fails the whole restore naming that instance.
func TestRestoreOperatorsRejectsBadChains(t *testing.T) {
	sink := &depositSink{got: map[string][]byte{}}
	cfg := Config{Streams: 2, Parallelism: 1, BatchSize: 1, SnapshotSink: sink}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(q *Query) {
		_, ack, err := eng.Submit(q, SinkFunc(func(Result) {}))
		if err != nil {
			t.Fatal(err)
		}
		<-ack
	}
	submit(aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()))
	submit(joinQ(window.TumblingSpec(10), expr.True(), expr.True()))
	insts := eng.InstanceCount()
	for i, barrier := 1, uint64(1); barrier <= 2; barrier++ {
		for end := i + 5; i < end; i++ {
			for s := 0; s < 2; s++ {
				if err := eng.Ingest(s, event.Tuple{Key: 1, Time: event.Time(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if barrier == 2 {
			// A changelog between the barriers, so barrier 2's delta carries
			// a grown table.
			submit(aggQ(window.TumblingSpec(5), sqlstream.AggCount, -1, expr.True()))
		}
		eng.Checkpoint(barrier)
		sink.await(t, insts*int(barrier))
	}
	ctrl := eng.ControlSnapshot()
	eng.Drain()

	// chain resolves barrier 2 the way the durable store does: a delta
	// deposit is preceded by barrier 1's full one.
	chain := func(op string, inst int) [][]byte {
		last := sink.got[fmt.Sprintf("%s/%d/2", op, inst)]
		if len(last) > 0 && last[0] == spe.DeltaSnapshotMagic {
			return [][]byte{sink.got[fmt.Sprintf("%s/%d/1", op, inst)], last}
		}
		return [][]byte{last}
	}
	restore := func(edit func(op string, inst int, c [][]byte) [][]byte) error {
		fresh, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Drain()
		if err := fresh.RestoreControl(ctrl); err != nil {
			t.Fatal(err)
		}
		return fresh.RestoreOperators(func(op string, inst int) ([][]byte, bool) {
			return edit(op, inst, chain(op, inst)), true
		})
	}
	if err := restore(func(_ string, _ int, c [][]byte) [][]byte { return c }); err != nil {
		t.Fatalf("intact chains: %v", err)
	}
	for _, op := range []string{"aggregate", "join-0"} {
		if c := chain(op, 0); len(c) != 2 {
			t.Fatalf("%s's chain at barrier 2 has %d links, want a full snapshot and a delta", op, len(c))
		}
	}
	for _, op := range []string{"select-0", "select-1", "join-0", "aggregate"} {
		err := restore(func(o string, _ int, c [][]byte) [][]byte {
			if o == op {
				return [][]byte{{0xEE}}
			}
			return c
		})
		if err == nil || !strings.Contains(err.Error(), "restore "+op+"[0]") {
			t.Errorf("%s's full snapshot undecodable: %v", op, err)
		}
	}
	// The delta applied twice: it names a predecessor the instance has
	// moved past.
	for _, op := range []string{"aggregate", "join-0"} {
		err := restore(func(o string, _ int, c [][]byte) [][]byte {
			if o == op {
				return append(c, c[1])
			}
			return c
		})
		if err == nil || !strings.Contains(err.Error(), "restore "+op+"[0] delta 2/2") {
			t.Errorf("%s's delta applied twice: %v", op, err)
		}
	}
}

// TestRestoreRejectsSkippedLink: each delta names the barrier of the link it
// extends, and Restore applies it only on top of that link. A chain of a
// full link and two deltas, with no changelog anywhere between them, each
// delta writing a slice the full link already holds, restores whole; with
// its middle delta skipped, a delta applied twice, or a delta applied to an
// instance that holds no link, it fails — for the
// aggregation and the join alike, whose links share the driver's decoder.
// Nothing else can tell: the skipped delta's table and ring are the ones the
// next delta carries.
func TestRestoreRejectsSkippedLink(t *testing.T) {
	type windowed interface {
		spe.Logic
		spe.Restorable
		linker
	}
	for _, op := range []string{"aggregation", "join"} {
		t.Run(op, func(t *testing.T) {
			q, ports := aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, expr.True()), 1
			newOp := func() windowed { return NewSharedAggregation(1, 10, NewRouter(&OpMetrics{}), &OpMetrics{}) }
			if op == "join" {
				q, ports = joinQ(window.TumblingSpec(10), expr.True(), expr.True()), 2
				newOp = func() windowed { return NewSharedJoin(0, 0, 10, NewRouter(&OpMetrics{}), &OpMetrics{}) }
			}
			orig := newOp()
			orig.OnChangelog(newCLBuilder().create(t, 0, q), 0, nil)
			write := func(at event.Time) {
				for port := 0; port < ports; port++ {
					orig.OnTuple(port, event.Tuple{Key: 1, Time: at, Fields: [event.NumFields]int64{int64(at)}, QuerySet: bitset.FromIndexes(0)}, nil)
				}
			}
			write(5)
			write(15)
			var chain [][]byte
			for _, at := range []event.Time{25, 6, 16} {
				write(at)
				chain = append(chain, orig.OnBarrier(uint64(len(chain)+1), nil))
			}
			if chain[0][0] == spe.DeltaSnapshotMagic || chain[1][0] != spe.DeltaSnapshotMagic || chain[2][0] != spe.DeltaSnapshotMagic {
				t.Fatal("the links are not a full snapshot and two deltas; the test proved nothing")
			}
			apply := func(links ...[]byte) (windowed, error) {
				fresh := newOp()
				for _, link := range links {
					if err := fresh.Restore(link); err != nil {
						return fresh, err
					}
				}
				return fresh, nil
			}
			// A fresh instance has applied no link, which a delta naming
			// barrier 0 as its predecessor must not be taken for.
			noBase := append([]byte(nil), chain[1]...)
			binary.LittleEndian.PutUint64(noBase[1+8:], 0)
			whole, err := apply(chain...)
			if err != nil {
				t.Fatalf("the whole chain: %v", err)
			}
			assertSameSnapshot(t, "whole chain", fullLink(whole), fullLink(orig))
			for _, tc := range []struct {
				name  string
				links [][]byte
			}{
				{"middle delta skipped", [][]byte{chain[0], chain[2]}},
				{"delta applied twice", [][]byte{chain[0], chain[1], chain[1]}},
				{"last delta applied twice", [][]byte{chain[0], chain[1], chain[2], chain[2]}},
				{"delta naming barrier 0 on a fresh instance", [][]byte{noBase}},
			} {
				if _, err := apply(tc.links...); err == nil || !strings.Contains(err.Error(), "last link applied") {
					t.Errorf("%s: restored (%v)", tc.name, err)
				}
			}
		})
	}
}

// TestRestoreControlRejectsBadRegistry: the registry is the first thing a
// control snapshot holds; one cut short and one that does not decode both
// fail the restore.
func TestRestoreControlRejectsBadRegistry(t *testing.T) {
	eng := controlEngine(t)
	snap := eng.ControlSnapshot()
	eng.Drain()
	r := wire.NewReader(snap)
	r.U8("version")
	reg := r.Bytes("registry")
	off := bytes.Index(snap, reg)
	bad := append([]byte(nil), reg...)
	bad[0] ^= 0xFF // the registry snapshot's version byte
	forged := append(wire.AppendBytes(append([]byte(nil), snap[0]), bad), snap[off+len(reg):]...)
	for _, tc := range []struct {
		name string
		snap []byte
		want string
	}{
		{"cut inside the registry", snap[:off+len(reg)/2], "control registry"},
		{"an undecodable registry", forged, "registry snapshot version"},
	} {
		fresh := newControlEngine(t)
		err := fresh.RestoreControl(tc.snap)
		fresh.Drain()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
