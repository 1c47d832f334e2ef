// Package checkpoint implements the fault-tolerance story of paper §3.3:
// exactly-once processing through input logging, deterministic replay, and
// transactional output commits aligned with checkpoint barriers.
//
// AStream's operators are deterministic functions of their event-time
// inputs: tuples, changelog markers, and watermarks are woven into the
// logged streams, so replaying the log reproduces every operator state and
// every result. This package provides
//
//   - Log: a total-ordered, binary-serializable record of everything that
//     entered the engine (tuples per stream, query create/stop requests);
//   - Coordinator: barrier-based checkpoints over a running engine (the spe
//     runtime aligns barriers exactly as Flink does) with per-checkpoint
//     log offsets;
//   - TxSink: a transactional sink that buffers results per checkpoint
//     epoch and exposes only committed epochs, so a crash between
//     checkpoints never double-exposes results after replay;
//   - Replay: rebuilding an engine from the log.
//
// Recovery here replays the log from the beginning (state snapshots, which
// the spe runtime also supports, would merely bound replay length; the
// correctness argument — determinism — is identical).
package checkpoint

import (
	"fmt"
	"sync"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/wire"
)

// RecordKind discriminates log records.
type RecordKind uint8

const (
	// RecTuple is one ingested tuple on a stream.
	RecTuple RecordKind = iota
	// RecSubmit is a query creation request.
	RecSubmit
	// RecStop is a query stop request (by create-ordinal).
	RecStop
)

// Record is one logged input event.
type Record struct {
	Kind    RecordKind
	Stream  int
	Tuple   event.Tuple
	Query   *core.Query // for RecSubmit
	Ordinal int         // for RecStop: 1-based create ordinal
}

// Log is an in-memory, append-only input log with binary round-tripping.
// It is safe for one writer and many readers of committed prefixes.
type Log struct {
	mu   sync.Mutex
	recs []Record
}

// Append adds a record and returns its offset. The in-memory log cannot
// fail; the error return exists for InputLog implementations that write
// through to disk.
func (l *Log) Append(r Record) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
	return len(l.recs) - 1, nil
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Slice returns records [from, to).
func (l *Log) Slice(from, to int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if to > len(l.recs) {
		to = len(l.recs)
	}
	out := make([]Record, to-from)
	copy(out, l.recs[from:to])
	return out
}

// AppendRecord serializes one record onto b, in the same per-record layout
// Marshal uses for whole logs (DESIGN.md "Wire format"). The durable
// backend's write-ahead log frames each record individually through this
// helper, so both log representations stay byte-compatible by construction.
func AppendRecord(b []byte, r *Record) []byte {
	b = wire.AppendU8(b, uint8(r.Kind))
	switch r.Kind {
	case RecTuple:
		b = wire.AppendU32(b, uint32(r.Stream))
		b = wire.AppendTuple(b, &r.Tuple)
	case RecSubmit:
		b = core.AppendQuery(b, r.Query)
	case RecStop:
		b = wire.AppendU32(b, uint32(r.Ordinal))
	}
	return b
}

func readRecord(r *wire.Reader) Record {
	rec := Record{Kind: RecordKind(r.U8("record kind"))}
	switch rec.Kind {
	case RecTuple:
		rec.Stream = int(r.U32("record stream"))
		rec.Tuple = wire.ReadTuple(r)
	case RecSubmit:
		rec.Query = core.ReadQuery(r)
	case RecStop:
		rec.Ordinal = int(r.U32("record stop ordinal"))
	default:
		r.Fail(fmt.Errorf("checkpoint: unknown record kind %d", rec.Kind))
	}
	return rec
}

// DecodeRecord decodes exactly one record produced by AppendRecord; bytes
// left over are an error.
func DecodeRecord(b []byte) (Record, error) {
	r := wire.NewReader(b)
	rec := readRecord(r)
	return rec, r.Finish("log record")
}

// Marshal serializes the whole log (durability simulation: what would be on
// disk or in Kafka).
func (l *Log) Marshal() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := wire.AppendCount(nil, len(l.recs))
	for i := range l.recs {
		buf = AppendRecord(buf, &l.recs[i])
	}
	return buf
}

// UnmarshalLog reconstructs a log from Marshal's output.
func UnmarshalLog(b []byte) (*Log, error) {
	r := wire.NewReader(b)
	n := r.Count("log record count", 5)
	l := &Log{recs: make([]Record, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		l.recs = append(l.recs, readRecord(r))
	}
	if err := r.Finish("log"); err != nil {
		return nil, fmt.Errorf("checkpoint: log, %d of %d records in: %w", len(l.recs), n, err)
	}
	return l, nil
}
