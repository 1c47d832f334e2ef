package fault

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"

	"astream/internal/durable"
)

// This file extends the chaos toolkit below the durability line: a DiskPlan
// is a seeded, replayable schedule of disk faults — torn writes, corrupted
// frames, and a crash at any disk operation the durable layer makes —
// injected through its one Hook seam. Like Plan, all randomness is consumed
// at construction; during a run the plan is a pure lookup table, and fired
// one-shot ops stay fired across incarnations.

// DiskOpKind enumerates the injectable disk fault types.
type DiskOpKind int

const (
	// TornWriteAt writes only a prefix of the N-th matching write, then
	// crashes — the classic torn append the WAL tail scan must absorb.
	TornWriteAt DiskOpKind = iota
	// CorruptCRC writes the N-th matching write with a flipped byte, then
	// crashes — the frame lands whole but its checksum cannot verify.
	CorruptCRC
	// CrashAt crashes at the N-th matching operation of its class, before
	// the operation runs: a write that never landed, an fsync that promised
	// nothing, a temp file never renamed into place, a segment never
	// removed.
	CrashAt
)

func (k DiskOpKind) String() string {
	switch k {
	case TornWriteAt:
		return "torn-write"
	case CorruptCRC:
		return "corrupt-crc"
	case CrashAt:
		return "crash"
	default:
		return fmt.Sprintf("disk-kind(%d)", int(k))
	}
}

// DiskTarget selects which backend files an op applies to, classified by
// basename the way the durable layout names them.
type DiskTarget int

const (
	TargetAny      DiskTarget = iota
	TargetWAL                 // wal-*.seg segment files
	TargetSnap                // snap-* deposit files (and their temp files)
	TargetManifest            // the manifest (and its temp file)
	TargetOut                 // out-* result epochs (and their temp files)
	TargetDir                 // the state directory and its wal, snap and out directories
)

func (t DiskTarget) String() string {
	switch t {
	case TargetWAL:
		return "wal"
	case TargetSnap:
		return "snap"
	case TargetManifest:
		return "manifest"
	case TargetOut:
		return "out"
	case TargetDir:
		return "dir"
	default:
		return "any"
	}
}

func classifyPath(path string) DiskTarget {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return TargetWAL
	case strings.HasPrefix(base, "snap-"):
		return TargetSnap
	case strings.HasPrefix(base, "manifest"):
		return TargetManifest
	case strings.HasPrefix(base, "out-"):
		return TargetOut
	default:
		return TargetDir
	}
}

// DiskOp is one scheduled disk fault: fire on the N-th operation of Class
// against Target. TornWriteAt and CorruptCRC damage a write's bytes, so
// their class is always durable.OpWrite.
type DiskOp struct {
	Kind   DiskOpKind
	Class  durable.Op
	Target DiskTarget
	N      int // 1-based ordinal within (class, target)
}

func (o DiskOp) String() string {
	return fmt.Sprintf("%v %v %v n=%d", o.Kind, o.class(), o.Target, o.N)
}

func (o DiskOp) class() durable.Op {
	if o.Kind != CrashAt {
		return durable.OpWrite
	}
	return o.Class
}

type diskCountKey struct {
	class  durable.Op
	target DiskTarget
}

// DiskPlan is a deterministic disk fault schedule implementing durable.Hook.
// Safe for concurrent use (deposit writes come from instance goroutines) and
// shared across incarnations. A plan with no ops only counts: Seen lists
// every operation it was consulted on.
type DiskPlan struct {
	mu       sync.Mutex
	ops      []DiskOp
	fired    []bool
	counts   map[diskCountKey]int
	seen     []DiskOp
	firedLog []string
}

var _ durable.Hook = (*DiskPlan)(nil)

// NewDiskPlan builds a plan from an explicit schedule.
func NewDiskPlan(ops ...DiskOp) *DiskPlan {
	return &DiskPlan{
		ops:    append([]DiskOp(nil), ops...),
		fired:  make([]bool, len(ops)),
		counts: map[diskCountKey]int{},
	}
}

// RandomDiskConfig bounds the schedule RandomDiskPlan draws. The per-target
// maxima reflect how often each file class is touched: WAL writes happen per
// record, snapshot operations per (checkpoint × instance), and operations on
// the manifest, the result epochs and the directories about once per
// checkpoint.
type RandomDiskConfig struct {
	NumFaults   int
	MaxWAL      int // WAL op ordinals drawn from [1, MaxWAL]
	MaxSnap     int // snapshot op ordinals drawn from [1, MaxSnap]
	MaxManifest int // manifest, result epoch and directory op ordinals drawn from [1, MaxManifest]
}

// RandomDiskPlan draws a schedule over every operation class from the seeded
// generator; the generator is consumed here and only here, so equal seeds
// replay identically. A write is torn, corrupted or crashed at; any other
// class is crashed at. Ops that never come due (e.g. a rename aimed at the
// WAL, which is never renamed) are kept as controls: a plan that does not
// fire must not perturb output either.
func RandomDiskPlan(seed int64, c RandomDiskConfig) *DiskPlan {
	rng := rand.New(rand.NewSource(seed))
	targets := []DiskTarget{TargetWAL, TargetSnap, TargetManifest, TargetOut, TargetDir}
	ops := make([]DiskOp, 0, c.NumFaults)
	for i := 0; i < c.NumFaults; i++ {
		o := DiskOp{Kind: CrashAt, Class: durable.Op(rng.Intn(durable.NumOps)), Target: targets[rng.Intn(len(targets))]}
		if o.Class == durable.OpWrite {
			o.Kind = DiskOpKind(rng.Intn(int(CrashAt) + 1))
		}
		switch o.Target {
		case TargetWAL:
			o.N = 1 + rng.Intn(max(1, c.MaxWAL))
		case TargetSnap:
			o.N = 1 + rng.Intn(max(1, c.MaxSnap))
		default:
			o.N = 1 + rng.Intn(max(1, c.MaxManifest))
		}
		ops = append(ops, o)
	}
	return NewDiskPlan(ops...)
}

// Ops returns a copy of the schedule.
func (p *DiskPlan) Ops() []DiskOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]DiskOp(nil), p.ops...)
}

// Fired returns a description of every injection that has fired, in order.
func (p *DiskPlan) Fired() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.firedLog...)
}

// Seen returns every operation the plan was consulted on, in order, each as
// the CrashAt op that would fail exactly that operation: its class, its
// file's target, and its ordinal within the two.
func (p *DiskPlan) Seen() []DiskOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]DiskOp(nil), p.seen...)
}

// Disk implements durable.Hook: count the operation, and fire the first
// unfired op that comes due — tear or corrupt a write's bytes, or withhold
// them — returning an error that wraps durable.ErrInjectedCrash.
func (p *DiskPlan) Disk(op durable.Op, path string, b []byte) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	target := classifyPath(path)
	p.counts[diskCountKey{class: op, target: target}]++
	p.counts[diskCountKey{class: op, target: TargetAny}]++
	p.seen = append(p.seen, DiskOp{Kind: CrashAt, Class: op, Target: target, N: p.counts[diskCountKey{class: op, target: target}]})
	for i, o := range p.ops {
		if p.fired[i] || o.class() != op || (o.Target != TargetAny && o.Target != target) ||
			p.counts[diskCountKey{class: op, target: o.Target}] != o.N {
			continue
		}
		p.fired[i] = true
		p.firedLog = append(p.firedLog, fmt.Sprintf("%v fired at %s", o, filepath.Base(path)))
		err := fmt.Errorf("%w: %v", durable.ErrInjectedCrash, o)
		switch o.Kind {
		case TornWriteAt:
			return b[:len(b)/2], err
		case CorruptCRC:
			bad := append([]byte(nil), b...)
			if len(bad) > 0 {
				bad[len(bad)-1] ^= 0xA5
			}
			return bad, err
		default:
			return nil, err
		}
	}
	return b, nil
}
