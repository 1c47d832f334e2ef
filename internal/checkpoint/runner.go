package checkpoint

import (
	"fmt"
	"sync/atomic"
	"time"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/wire"
)

// Manifest records where checkpoints cut the log: Offsets[i] is the number
// of log records covered by checkpoint i+1 (barrier IDs start at 1). A
// recovered runner re-cuts the log at the same offsets, which makes epoch
// contents deterministic across incarnations.
type Manifest struct {
	Offsets []int
}

// Runner drives a core.Engine while logging every input, cutting
// checkpoints, and committing result epochs transactionally. All methods
// must be called from one goroutine (the ingestion loop), which is what
// makes checkpoint positions quiescent points: no input enters the engine
// between barrier injection and completion, so an epoch's results are
// exactly the results of its log range.
// InputLog is the input-log contract the runner writes and replays. The
// in-memory Log is the default; internal/durable provides a segmented
// on-disk write-ahead log. Offsets are absolute across the log's lifetime:
// a durable log that truncates old segments still addresses surviving
// records by their original offsets.
type InputLog interface {
	// Append adds a record and returns its absolute offset. A durable log
	// returns an error when the write-through fails (the record must not be
	// applied to the engine in that case).
	Append(r Record) (int, error)
	// Len returns the absolute offset one past the last record.
	Len() int
	// Slice returns records [from, to). Both bounds must address retained
	// records (a durable log panics below its truncation point — recovery
	// validates retention before replaying).
	Slice(from, to int) []Record
}

type Runner struct {
	cfg      core.Config
	eng      *core.Engine
	log      InputLog
	sink     *TxSink
	store    Store
	manifest Manifest
	ordinals []int // created query IDs, by submit order
	barrier  uint64
	crashed  bool
	// detached stops a crashed incarnation's failure callbacks from
	// poisoning the store its successor recovers from.
	detached atomic.Bool
}

// NewRunner builds an engine wired for checkpointing, with a private
// snapshot store.
func NewRunner(cfg core.Config, log InputLog, sink *TxSink) (*Runner, error) {
	return NewRunnerWithStore(cfg, log, sink, NewSnapshotStore())
}

// NewRunnerWithStore builds an engine wired for checkpointing against a
// caller-owned snapshot store. Sharing one store across incarnations is what
// enables snapshot-based recovery: the successor reads its predecessor's
// latest completed checkpoint from the same store.
func NewRunnerWithStore(cfg core.Config, log InputLog, sink *TxSink, store Store) (*Runner, error) {
	r := &Runner{log: log, sink: sink, store: store}
	cfg.SnapshotSink = store.NewGate()
	// Deterministic session behaviour: one changelog per request, no timer.
	cfg.BatchSize = 1
	cfg.BatchTimeout = time.Hour
	// Incremental snapshots only make sense against a store that can
	// persist and resolve delta chains; everything else gets full
	// snapshots regardless of configuration.
	if h, ok := store.(BackendHooks); !ok || !h.SupportsDeltas() {
		cfg.SnapshotDeltaEvery = 0
	}
	// Failures wake any in-flight checkpoint wait: a dead instance will
	// never pass its barrier, so the coordinator must give up and recover.
	userCB := cfg.OnInstanceFailure
	cfg.OnInstanceFailure = func(f spe.InstanceFailure) {
		if userCB != nil {
			userCB(f)
		}
		if r.detached.Load() {
			return
		}
		store.Fail(f)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	r.cfg = cfg
	r.eng = eng
	return r, nil
}

// Engine exposes the underlying engine (metrics, etc.).
func (r *Runner) Engine() *core.Engine { return r.eng }

// Store exposes the snapshot store, for handing to a successor incarnation.
func (r *Runner) Store() Store { return r.store }

// Manifest returns the checkpoint manifest so far.
func (r *Runner) Manifest() Manifest {
	m := Manifest{Offsets: make([]int, len(r.manifest.Offsets))}
	copy(m.Offsets, r.manifest.Offsets)
	return m
}

// Submit logs and submits a query creation.
func (r *Runner) Submit(q *core.Query) error {
	if _, err := r.log.Append(Record{Kind: RecSubmit, Query: q}); err != nil {
		return err
	}
	return r.applySubmit(q)
}

func (r *Runner) applySubmit(q *core.Query) error {
	id, ack, err := r.eng.Submit(q, r.sink)
	if err != nil {
		return err
	}
	<-ack
	r.ordinals = append(r.ordinals, id)
	return nil
}

// StopOrdinal logs and applies a stop of the n-th created query (1-based).
func (r *Runner) StopOrdinal(ord int) error {
	if _, err := r.log.Append(Record{Kind: RecStop, Ordinal: ord}); err != nil {
		return err
	}
	return r.applyStop(ord)
}

func (r *Runner) applyStop(ord int) error {
	if ord < 1 || ord > len(r.ordinals) {
		return fmt.Errorf("checkpoint: no query ordinal %d", ord)
	}
	ack, err := r.eng.StopQuery(r.ordinals[ord-1])
	if err != nil {
		return err
	}
	<-ack
	return nil
}

// Ingest logs and pushes one tuple.
func (r *Runner) Ingest(stream int, t event.Tuple) error {
	if _, err := r.log.Append(Record{Kind: RecTuple, Stream: stream, Tuple: t}); err != nil {
		return err
	}
	return r.eng.Ingest(stream, t)
}

// Checkpoint cuts a checkpoint: injects an aligned barrier, waits until
// every operator instance has passed it (at which point every result of the
// current epoch has been delivered), persists the control snapshot alongside
// the collected operator snapshots, then commits the epoch and opens the
// next one. A non-nil error means an instance failed and the checkpoint can
// never complete; the caller should Crash() and recover.
func (r *Runner) Checkpoint() (uint64, error) {
	r.barrier++
	id := r.barrier
	offset := r.log.Len()
	r.eng.Checkpoint(id)
	if err := r.store.Await(id, r.eng.InstanceCount()); err != nil {
		return id, err
	}
	r.store.SetControl(id, r.controlBlob())
	if h, ok := r.store.(BackendHooks); ok {
		h.NoteOffset(id, offset)
	}
	if err := r.store.MarkComplete(id); err != nil {
		return id, err
	}
	r.sink.Commit(id - 1)
	r.sink.BeginEpoch(id)
	r.manifest.Offsets = append(r.manifest.Offsets, offset)
	return id, nil
}

const controlBlobVersion = 2

// controlBlob is the runner's per-checkpoint control record: its own
// ordinal table followed by the engine's control snapshot.
func (r *Runner) controlBlob() []byte {
	b := wire.AppendU8(nil, controlBlobVersion)
	b = wire.AppendCount(b, len(r.ordinals))
	for _, id := range r.ordinals {
		b = wire.AppendI64(b, int64(id))
	}
	return wire.AppendBytes(b, r.eng.ControlSnapshot())
}

// splitControlBlob undoes controlBlob.
func splitControlBlob(b []byte) (ordinals []int, engine []byte, err error) {
	r := wire.NewReader(b)
	r.Version("control blob version", controlBlobVersion)
	ordinals = make([]int, r.Count("control blob ordinal count", 8))
	for i := range ordinals {
		ordinals[i] = int(r.I64("control blob ordinal"))
	}
	engine = r.Bytes("control blob engine snapshot")
	if err := r.Finish("control blob"); err != nil {
		return nil, nil, err
	}
	return ordinals, engine, nil
}

// Crash abandons the engine, simulating a process failure: buffered,
// uncommitted results are lost; the log, the committed epochs, and the
// snapshot store's completed checkpoints survive.
func (r *Runner) Crash() map[uint64][]string {
	r.crashed = true
	r.detached.Store(true)
	// Drain in the background so goroutines exit; results it produces go
	// to pending epochs that will never commit — exactly what a crash
	// loses. The store's generation gate drops any snapshots this drain
	// still completes.
	go r.eng.Drain()
	return r.sink.CommittedEpochs()
}

// Finish drains the engine and commits the final epoch.
func (r *Runner) Finish() []string {
	if r.crashed {
		return nil
	}
	r.eng.Drain()
	r.sink.Commit(^uint64(0))
	return r.sink.Committed()
}

// Recover rebuilds an engine from the log and replays it from the beginning.
// Epochs already committed by the crashed incarnation are deduplicated; the
// rest commit as replay crosses the manifest's checkpoint positions. Cost is
// proportional to the whole log; prefer RecoverFromStore when a snapshot
// store with a completed checkpoint is available.
func Recover(cfg core.Config, log InputLog, manifest Manifest, committed map[uint64][]string) (*Runner, error) {
	sink := NewTxSink()
	sink.SeedCommitted(committed)
	r, err := NewRunner(cfg, log, sink)
	if err != nil {
		return nil, err
	}
	return r, r.replayRange(0, manifest, 0)
}

// RecoverFromStore rebuilds a runner from the store's latest completed
// checkpoint K: operator state comes from the persisted snapshots via
// Operator.Restore, control state from the control blob, and only the log
// suffix past K's offset is replayed — recovery cost proportional to the
// checkpoint interval, not job lifetime. Falls back to full-log Recover when
// the store has no completed checkpoint.
func RecoverFromStore(cfg core.Config, log InputLog, manifest Manifest, committed map[uint64][]string, store Store) (*Runner, error) {
	k, ok := store.LatestComplete()
	if !ok {
		// Nothing completed yet: full-log replay, but still against the
		// caller's store so later checkpoints (and failures) land there.
		store.ClearFailure()
		store.DropAfter(0)
		sink := NewTxSink()
		sink.SeedCommitted(committed)
		r, err := NewRunnerWithStore(cfg, log, sink, store)
		if err != nil {
			return nil, err
		}
		return r, r.replayRange(0, manifest, 0)
	}
	if int(k) > len(manifest.Offsets) {
		return nil, fmt.Errorf("checkpoint: store at barrier %d but manifest has %d offsets", k, len(manifest.Offsets))
	}
	store.ClearFailure()
	store.DropAfter(k)
	ctrl, ok := store.Control(k)
	if !ok {
		return nil, fmt.Errorf("checkpoint: no control snapshot at barrier %d", k)
	}
	ordinals, engCtrl, err := splitControlBlob(ctrl)
	if err != nil {
		return nil, err
	}
	sink := NewTxSink()
	sink.SeedCommitted(committed)
	r, err := NewRunnerWithStore(cfg, log, sink, store)
	if err != nil {
		return nil, err
	}
	if err := r.eng.RestoreControl(engCtrl); err != nil {
		return nil, err
	}
	if err := r.eng.RestoreOperators(func(op string, instance int) ([][]byte, bool) {
		return store.FetchChain(k, op, instance)
	}); err != nil {
		return nil, err
	}
	// Re-register the transactional sink for every query ever created:
	// stopped queries still fire their final windows during the suffix,
	// exactly as they did in the original run.
	r.ordinals = ordinals
	for _, id := range ordinals {
		r.eng.Router().Register(id, sink)
	}
	r.barrier = k
	r.manifest.Offsets = append(r.manifest.Offsets, manifest.Offsets[:k]...)
	sink.BeginEpoch(k)
	return r, r.replayRange(manifest.Offsets[k-1], manifest, int(k))
}

// replayRange replays log records [start, len) without re-logging, re-cutting
// checkpoints at the manifest offsets from index nextOffset on.
func (r *Runner) replayRange(start int, manifest Manifest, nextOffset int) error {
	recs := r.log.Slice(start, r.log.Len())
	next := nextOffset
	for i, rec := range recs {
		abs := start + i
		for next < len(manifest.Offsets) && manifest.Offsets[next] == abs {
			if err := r.replayCheckpoint(manifest.Offsets[next]); err != nil {
				return err
			}
			r.manifest.Offsets = append(r.manifest.Offsets, manifest.Offsets[next])
			next++
		}
		switch rec.Kind {
		case RecSubmit:
			if err := r.applySubmit(rec.Query); err != nil {
				return err
			}
		case RecStop:
			if err := r.applyStop(rec.Ordinal); err != nil {
				return err
			}
		case RecTuple:
			if err := r.eng.Ingest(rec.Stream, rec.Tuple); err != nil {
				return err
			}
		}
	}
	for next < len(manifest.Offsets) && manifest.Offsets[next] == r.log.Len() {
		if err := r.replayCheckpoint(manifest.Offsets[next]); err != nil {
			return err
		}
		r.manifest.Offsets = append(r.manifest.Offsets, manifest.Offsets[next])
		next++
	}
	return nil
}

// FinishReplay drains and commits everything after recovery.
func (r *Runner) FinishReplay() []string {
	r.eng.Drain()
	r.sink.CommitReplayed(^uint64(0))
	return r.sink.Committed()
}

// replayCheckpoint re-cuts a checkpoint during replay, deduplicating epochs
// the previous incarnation already committed. The offset is the re-cut
// position from the recovered manifest, re-noted so a durable store's
// persisted offsets stay identical across incarnations.
func (r *Runner) replayCheckpoint(offset int) error {
	r.barrier++
	id := r.barrier
	r.eng.Checkpoint(id)
	if err := r.store.Await(id, r.eng.InstanceCount()); err != nil {
		return err
	}
	r.store.SetControl(id, r.controlBlob())
	if h, ok := r.store.(BackendHooks); ok {
		h.NoteOffset(id, offset)
	}
	if err := r.store.MarkComplete(id); err != nil {
		return err
	}
	r.sink.CommitReplayed(id - 1)
	r.sink.BeginEpoch(id)
	return nil
}
