package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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
	cfg := Config{Streams: 2, Parallelism: 1, BatchSize: 1, SnapshotSink: sink, SnapshotDeltaEvery: 3}
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
			// A changelog between the barriers, so barrier 2's table delta
			// holds one.
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
	if c := chain("aggregate", 0); len(c) != 2 {
		t.Fatalf("the aggregation's chain at barrier 2 has %d links, want a full snapshot and a delta", len(c))
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
	// The delta applied twice: its changelog-table delta no longer follows
	// the table it lands on.
	err = restore(func(o string, _ int, c [][]byte) [][]byte {
		if o == "aggregate" {
			return append(c, c[1])
		}
		return c
	})
	if err == nil || !strings.Contains(err.Error(), "restore aggregate[0] delta 2/2") {
		t.Errorf("a delta applied twice: %v", err)
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
