// Package spe is the substrate stream processing engine: the role Apache
// Flink plays for AStream in the paper (§1.3, §5). It provides dataflow
// topologies of parallel operator instances connected by channels, event-time
// watermark propagation, changelog-marker delivery, aligned checkpoint
// barriers, keyed data exchange, and graceful end-of-stream draining.
//
// The engine is deliberately small but structurally faithful: operators are
// goroutines, exchanges are bounded channels (so backpressure is real),
// watermarks are the minimum over all upstream senders, and barriers align
// before a snapshot is taken — the same mechanics a distributed SPE uses,
// minus the network (simulated by imposing serialization costs on edges
// between instances Node.AssignNodes places on different nodes).
package spe

import (
	"fmt"

	"astream/internal/event"
)

// PartitionMode selects how tuples are routed to a consumer's instances.
// Watermarks, changelogs, barriers, and EOS are always broadcast.
type PartitionMode uint8

const (
	// Keyed routes each tuple by hash of its key: the "common partitioning
	// key" assumption under which operators can be shared (paper §2).
	Keyed PartitionMode = iota
	// Broadcast delivers every tuple to every instance.
	Broadcast
	// Global delivers every tuple to instance 0.
	Global
	// Forward delivers every tuple from upstream instance i to downstream
	// instance i: a 1:1 edge with no repartitioning. Forward edges require
	// equal parallelism on both ends and must be the consumer's only input
	// (Topology.Validate enforces both). Runs of forward edges whose
	// upstream has a single consumer and whose instances are co-located are
	// fused into operator chains at deploy time: the chained logics share
	// one instance and pass tuples by direct call, skipping the channel,
	// the batch buffer, and the codec entirely.
	Forward
)

func (m PartitionMode) String() string {
	switch m {
	case Keyed:
		return "keyed"
	case Broadcast:
		return "broadcast"
	case Global:
		return "global"
	case Forward:
		return "forward"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// message is what travels between instances: either a batch of data tuples
// (batch non-nil — the only tuple transport; one channel operation moves up
// to a full network buffer's worth of tuples, Flink-style) or one control
// element in elem, plus the sender's identity within the receiving inbox (for
// per-sender watermark bookkeeping) and the input port it arrives on.
type message struct {
	sender int
	port   int
	elem   event.Element // control elements only; never KindTuple
	batch  []event.Tuple
}

// hashKey spreads tuple keys over instances (Fibonacci hashing).
func hashKey(key int64, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int(h % uint64(n))
}

// Logic is the behaviour of one operator instance. The runtime guarantees:
//   - OnTuple is called for data tuples in arrival order per sender.
//   - OnWatermark is called with strictly increasing values, each being the
//     minimum over all senders of all ports.
//   - OnChangelog is called exactly once per changelog (deduplicated across
//     senders), before the combined watermark reaches the changelog's time.
//   - OnBarrier is called once per barrier after input alignment; the logic
//     must return its state snapshot.
//   - OnEOS is called once when every sender has finished; emissions are
//     still delivered downstream, then EOS is forwarded automatically.
//
// A Logic is owned by a single goroutine; no internal locking is needed.
type Logic interface {
	OnTuple(port int, t event.Tuple, out *Emitter)
	OnWatermark(wm event.Time, out *Emitter)
	OnChangelog(payload any, at event.Time, out *Emitter)
	OnBarrier(id uint64, out *Emitter) []byte
	OnEOS(out *Emitter)
}

// BaseLogic provides no-op defaults; embed it to implement only what an
// operator needs.
type BaseLogic struct{}

func (BaseLogic) OnTuple(int, event.Tuple, *Emitter)    {}
func (BaseLogic) OnWatermark(event.Time, *Emitter)      {}
func (BaseLogic) OnChangelog(any, event.Time, *Emitter) {}
func (BaseLogic) OnBarrier(uint64, *Emitter) []byte     { return nil }
func (BaseLogic) OnEOS(*Emitter)                        {}

// Restorable is implemented by logics that participate in checkpoint
// recovery.
type Restorable interface {
	Restore(snapshot []byte) error
}

// DeltaSnapshotMagic is the mandatory first byte of every incremental
// snapshot blob. Full operator snapshots start with a small version byte;
// the distinguished magic lets a snapshot store classify a deposit as
// base or delta without understanding the operator's encoding.
const DeltaSnapshotMagic byte = 0xD5

// DeltaSnapshotter is implemented by logics that can produce incremental
// snapshots. When a deployment enables deltas (WithDeltaSnapshots), the
// runtime calls OnBarrierDelta instead of OnBarrier at barrier alignment;
// the logic decides per barrier whether to emit a full snapshot or a delta
// covering only state dirtied since the previous barrier, keeping chains
// no longer than fullEvery-1 deltas between full snapshots. Delta blobs
// must start with DeltaSnapshotMagic; full blobs must not.
type DeltaSnapshotter interface {
	OnBarrierDelta(id uint64, out *Emitter, fullEvery int) []byte
}

// DeltaRestorable is implemented by logics whose incremental snapshots can
// be re-applied on top of a restored base during recovery. RestoreDelta is
// called once per delta, in chain order, after Restore.
type DeltaRestorable interface {
	RestoreDelta(snapshot []byte) error
}
