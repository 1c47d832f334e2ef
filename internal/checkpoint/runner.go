// Package checkpoint implements the fault-tolerance story of paper §3.3:
// exactly-once processing through input logging, deterministic replay, and
// transactional output commits aligned with checkpoint barriers.
//
// AStream's operators are deterministic functions of their event-time
// inputs: tuples, changelog markers, and watermarks are woven into the
// logged streams, so replaying the log reproduces every operator state and
// every result. This package is the runner and the transactional sink on top
// of the one storage layer, internal/durable: every input is appended to the
// store's write-ahead log before it is applied, barrier-aligned checkpoints
// deposit operator snapshots there, and each result epoch commits in the
// same manifest as the checkpoint that closes it. The state directory is the
// only thing that crosses incarnations: Open on a fresh directory starts
// empty, and on any other restores the latest completed checkpoint and
// replays the log suffix.
package checkpoint

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/event"
	"astream/internal/spe"
	"astream/internal/wire"
)

// errBadCheckpoint marks the failures that say something about checkpoint
// K's deposits — its control blob, a snapshot chain, or an operator Restore —
// and therefore demote it. Any other failed Open (a rejected config, a fault
// that comes due during suffix replay) leaves the manifest untouched.
var errBadCheckpoint = errors.New("checkpoint: completed checkpoint does not restore")

// Runner drives a core.Engine while logging every input, cutting
// checkpoints, and committing result epochs transactionally. All methods
// must be called from one goroutine (the ingestion loop), which is what
// makes checkpoint positions quiescent points: no input enters the engine
// between barrier injection and completion, so an epoch's results are
// exactly the results of its log range.
type Runner struct {
	eng      *core.Engine
	store    *durable.Store
	sink     *txSink
	ordinals []int // created query IDs, by submit order
	barrier  uint64
	streams  int
}

// Open opens the state directory and returns a runner on it: empty on a fresh
// directory, otherwise restored from the latest completed checkpoint with the
// log suffix past it replayed (no completed checkpoint means the suffix is the
// whole log). Replay re-cuts every barrier past the restored one at its
// recorded offset, so epoch contents are identical across incarnations. When
// the latest checkpoint's deposits no longer restore it is invalidated —
// persistently, so a crash during the retry does not loop — and the open
// retries at the previous retained one.
func Open(cfg core.Config, dir string, opts durable.Options) (*Runner, error) {
	for {
		s, err := durable.OpenStore(dir, opts)
		if err != nil {
			return nil, err
		}
		r, err := newRunner(cfg, s)
		if err == nil {
			return r, nil
		}
		retry := false
		if errors.Is(err, errBadCheckpoint) {
			ierr := s.InvalidateLatest()
			retry, err = ierr == nil, errors.Join(err, ierr)
		}
		if cerr := s.Close(); cerr != nil || !retry {
			return nil, errors.Join(err, cerr)
		}
	}
}

// newRunner builds an engine wired for checkpointing against the store and
// brings it to the end of the store's log.
func newRunner(cfg core.Config, s *durable.Store) (*Runner, error) {
	r := &Runner{store: s, sink: &txSink{store: s}}
	cfg.SnapshotSink = s
	// Deterministic session behaviour: one changelog per request, no timer.
	cfg.BatchSize = 1
	cfg.BatchTimeout = time.Hour
	// Failures wake any in-flight checkpoint wait: a dead instance will
	// never pass its barrier, so the coordinator must give up and recover.
	userCB := cfg.OnInstanceFailure
	cfg.OnInstanceFailure = func(f spe.InstanceFailure) {
		if userCB != nil {
			userCB(f)
		}
		s.Fail(f)
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	r.eng, r.streams = eng, eng.Config().Streams
	if err := r.restoreAndReplay(); err != nil {
		// Let the abandoned engine's goroutines exit; the caller closes the
		// store, which drops anything they still deposit.
		go eng.Drain()
		return nil, err
	}
	return r, nil
}

// restoreAndReplay restores the store's latest completed checkpoint K —
// control state from the control blob, operator state from the deposited
// snapshot chains — and replays the log past K's offset: recovery cost
// proportional to the checkpoint interval, not job lifetime.
func (r *Runner) restoreAndReplay() error {
	k, _ := r.store.LatestComplete()
	offsets := r.store.Offsets()
	start := 0
	if k > 0 {
		bad := func(err error) error { return fmt.Errorf("%w: barrier %d: %w", errBadCheckpoint, k, err) }
		ctrl, ok := r.store.Control(k)
		if !ok {
			return bad(errors.New("no control snapshot"))
		}
		ordinals, engCtrl, err := splitControlBlob(ctrl)
		if err != nil {
			return bad(err)
		}
		if err := r.eng.RestoreControl(engCtrl); err != nil {
			return bad(err)
		}
		// A chain that fails its verification demotes K; a read the disk
		// failed says nothing about K and fails the open as it is.
		var readErr error
		err = r.eng.RestoreOperators(func(op string, instance int) ([][]byte, bool) {
			chain, err := r.store.FetchChain(k, op, instance)
			if err != nil && !errors.Is(err, durable.ErrDamaged) {
				readErr = err
			}
			return chain, err == nil
		})
		if readErr != nil {
			return readErr
		}
		if err != nil {
			return bad(err)
		}
		// Re-register the transactional sink for every query ever created:
		// stopped queries still fire their final windows during the suffix,
		// exactly as they did in the original run.
		r.ordinals = ordinals
		for _, id := range ordinals {
			r.eng.Router().Register(id, r.sink)
		}
		r.barrier = k
		start = offsets[k-1]
	}
	recut := offsets[k:]
	recs := r.store.WAL().Slice(start, r.store.WAL().Len())
	for i := 0; i <= len(recs); i++ {
		for len(recut) > 0 && recut[0] == start+i {
			if _, err := r.checkpoint(recut[0]); err != nil {
				return err
			}
			recut = recut[1:]
		}
		if i == len(recs) {
			break
		}
		var err error
		switch rec := recs[i]; rec.Kind {
		case durable.RecSubmit:
			err = r.applySubmit(rec.Query)
		case durable.RecStop:
			err = r.applyStop(rec.Ordinal)
		case durable.RecTuple:
			err = r.eng.Ingest(rec.Stream, rec.Tuple)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Engine exposes the underlying engine (metrics, etc.).
func (r *Runner) Engine() *core.Engine { return r.eng }

// Store exposes the state directory's store (latest checkpoint, log length,
// committed results).
func (r *Runner) Store() *durable.Store { return r.store }

// Submit logs and submits a query creation. Like every logging call, it
// refuses what the engine would reject before the log holds it: a logged
// record that does not apply would fail every replay of the log.
func (r *Runner) Submit(q *core.Query) error {
	if err := q.Validate(r.streams); err != nil {
		return err
	}
	if _, err := r.store.WAL().Append(durable.Record{Kind: durable.RecSubmit, Query: q}); err != nil {
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
	if ord < 1 || ord > len(r.ordinals) || !slices.Contains(r.eng.ActiveQueryIDs(), r.ordinals[ord-1]) {
		return fmt.Errorf("checkpoint: no running query with ordinal %d", ord)
	}
	if _, err := r.store.WAL().Append(durable.Record{Kind: durable.RecStop, Ordinal: ord}); err != nil {
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

// Ingest logs and pushes one tuple. A failed append was never acknowledged:
// the tuple is not applied, and the source re-sends it after recovery.
func (r *Runner) Ingest(stream int, t event.Tuple) error {
	if stream < 0 || stream >= r.streams {
		return fmt.Errorf("checkpoint: no stream %d", stream)
	}
	if _, err := r.store.WAL().Append(durable.Record{Kind: durable.RecTuple, Stream: stream, Tuple: t}); err != nil {
		return err
	}
	return r.eng.Ingest(stream, t)
}

// Checkpoint cuts a checkpoint at the current end of the log. A non-nil error
// means an instance failed or the disk did, and the checkpoint can never
// complete; the caller should Crash() and Open the directory again.
func (r *Runner) Checkpoint() (uint64, error) {
	return r.checkpoint(r.store.WAL().Len())
}

// checkpoint cuts the next barrier, covering the log up to offset: injects
// an aligned barrier, waits until every operator instance has passed it (at
// which point every result of the current epoch has been delivered), writes
// the epoch's results, and publishes checkpoint and epoch in one manifest.
// During replay the offset is the recorded one, and an epoch a previous
// incarnation already committed is dropped by the store.
func (r *Runner) checkpoint(offset int) (uint64, error) {
	r.barrier++
	id := r.barrier
	r.eng.Checkpoint(id)
	if err := r.store.Await(id, r.eng.InstanceCount()); err != nil {
		return id, err
	}
	if err := r.sink.Commit(id - 1); err != nil {
		return id, err
	}
	return id, r.store.MarkComplete(id, r.controlBlob(), offset)
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

// Crash abandons the incarnation, simulating a process failure: buffered,
// uncommitted results are lost; what the state directory holds survives, and
// the directory is all a successor is given.
func (r *Runner) Crash() {
	// Sealing a dying incarnation's log may fail like any last write of a
	// crashing process; the successor reads whatever reached the disk.
	_ = r.store.Close()
	// Drain in the background so goroutines exit; the closed store drops any
	// snapshots this drain still completes, and the results it produces stay
	// in an epoch that will never commit — exactly what a crash loses.
	go r.eng.Drain()
}

// Finish drains the engine, commits the final epoch, and returns every
// committed result in epoch order. The runner and its store are done
// afterwards, whatever the outcome; on an error the incarnation is dead and
// the directory can be opened again.
func (r *Runner) Finish() ([]string, error) {
	r.eng.Drain()
	out, err := r.commitFinal()
	return out, errors.Join(err, r.store.Close())
}

func (r *Runner) commitFinal() ([]string, error) {
	// A dead instance's results are missing from the final epoch.
	if err := r.store.Failure(); err != nil {
		return nil, err
	}
	if err := r.sink.Commit(r.barrier); err != nil {
		return nil, err
	}
	if err := r.store.PublishOutput(); err != nil {
		return nil, err
	}
	return r.store.Committed()
}
