// Package durable is the crash-safe on-disk storage layer under the
// checkpoint runner: a segmented CRC32C write-ahead log for the input stream,
// snapshot deposits and committed result epochs written by atomic rename, and
// a manifest that is the single commit record for both. A process that
// crashes mid-append or mid-rename reopens to its latest completed
// checkpoint, replays the log suffix, and produces byte-identical output —
// the paper's recovery guarantee (§3.3) as a property of the state directory.
//
// Layout under the state directory:
//
//	wal/wal-<hex first record index>.seg   framed input records
//	snap/snap-<hex barrier>-<op>-<inst>    one snapshot deposit per instance
//	out/out-<hex epoch>                    one committed result epoch
//	manifest                               JSON commit record, atomic rename
//
// Torn-write tolerance: snapshot deposits and result epochs are fsynced, but
// either exists only once the manifest referencing it is renamed into place.
// A torn WAL tail is truncated at the first bad frame; corruption in a sealed
// (previously fsynced) region fails open loudly. A file whose size or CRC
// disagrees with the manifest is rejected: for a deposit, recovery falls back
// to the previous retained checkpoint.
package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"astream/internal/spe"
	"astream/internal/wire"
)

const (
	snapDirName  = "snap"
	outDirName   = "out"
	walDirName   = "wal"
	manifestName = "manifest"
	tmpSuffix    = ".tmp"
	snapPrefix   = "snap-"
)

// manifestVersion names the layout of everything the manifest references —
// snapshot deposits, control blobs, WAL records and result epochs, all
// internal/wire compositions — so a state directory written by a build with
// other layouts fails at open instead of at the first record that happens not
// to decode.
const manifestVersion = 10

// manifestData is the store's single source of truth on disk, rewritten
// atomically (tmp + fsync + rename) only when a checkpoint completes or the
// final epoch commits. A snapshot deposit or a result epoch therefore becomes
// real exactly when a manifest referencing it is published; files a crashed
// incarnation wrote for a checkpoint that never completed are unreferenced
// and swept as orphans at the next open.
type manifestData struct {
	Version int
	// Latest is the newest completed barrier; 0 means none.
	Latest uint64
	// Offsets[i] is the input-log offset covered by barrier i+1, so a
	// restarted process re-cuts identical epochs. It may run past Latest:
	// a demoted barrier keeps its offset and is re-cut there during replay.
	Offsets []int
	// Barriers holds the retained completed checkpoints: the latest, its
	// predecessor (the fallback when the latest turns out corrupt), and any
	// older barrier still serving as the full base of a delta chain.
	Barriers []manifestBarrier
	// Outputs[e] verifies out/out-<e>, the committed results of epoch e.
	// Epoch e closes at barrier e+1, so every completed barrier k has
	// Outputs[k-1]; one more entry is the final epoch of a finished job.
	Outputs []manifestOutput
}

type manifestBarrier struct {
	Barrier  uint64
	Control  []byte
	Deposits []manifestDeposit
}

// manifestDeposit records one (op, instance) snapshot file plus the size and
// CRC32C that reads verify — a deposit that shrank, grew, or rotted is
// rejected and recovery falls back to the previous checkpoint.
type manifestDeposit struct {
	Op       string
	Instance int
	File     string
	Size     int64
	CRC      uint32
	Delta    bool
}

type manifestOutput struct {
	Size int64
	CRC  uint32
}

type depKey struct {
	op       string
	instance int
}

// Store is the durable checkpoint store: snapshot deposits and result epochs
// as individual files committed by atomic rename, a JSON manifest as the
// commit record, and a segmented WAL for the input log. One Store serves one
// engine incarnation: it is the incarnation's spe.SnapshotSink, and the
// successor opens its own from the same directory.
type Store struct {
	dir     string
	snapDir string
	outDir  string
	disk    disk
	wal     *WAL

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// writers counts the deposits being written; Close waits them out.
	writers sync.WaitGroup

	// pending holds deposits for barriers not yet marked complete; they move
	// into the manifest at MarkComplete.
	pending  map[uint64]map[depKey]manifestDeposit
	expected map[uint64]int

	// offsets and outputs are the in-memory masters of the manifest's arrays:
	// loaded from it, extended by MarkComplete and CommitOutput, persisted by
	// the next publish.
	offsets []int
	outputs []manifestOutput
	man     manifestData
	failure error
}

// Options configures OpenStore.
type Options struct {
	// Hook is consulted on every disk operation, for fault injection; nil
	// in production.
	Hook Hook
	// SegmentBytes is the WAL segment roll threshold (DefaultSegmentBytes
	// when zero).
	SegmentBytes int
}

// OpenStore opens (or initialises) the durable state directory: loads the
// manifest, opens the WAL — truncating a torn tail, failing loudly on sealed
// corruption — sweeps stray temp files and whatever a dead incarnation left
// unreferenced, and validates that the retained log still covers the latest
// completed checkpoint.
func OpenStore(dir string, opts Options) (*Store, error) {
	segMax := opts.SegmentBytes
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	s := &Store{
		dir:      dir,
		snapDir:  filepath.Join(dir, snapDirName),
		outDir:   filepath.Join(dir, outDirName),
		disk:     disk{hook: opts.Hook},
		pending:  map[uint64]map[depKey]manifestDeposit{},
		expected: map[uint64]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	for _, d := range []string{s.snapDir, s.outDir} {
		if err := s.disk.mkdir(d); err != nil {
			return nil, err
		}
	}
	// No manifest at all is the fresh directory; anything else must parse.
	s.man = manifestData{Version: manifestVersion}
	data, err := s.disk.readFile(filepath.Join(dir, manifestName))
	if err == nil {
		s.man, err = parseManifest(data)
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	s.offsets = append([]int(nil), s.man.Offsets...)
	s.outputs = append([]manifestOutput(nil), s.man.Outputs...)
	// A crash between manifest prepare and rename leaves a stray temp file;
	// the published manifest is still the old one, so just discard it.
	if err := s.disk.remove(filepath.Join(dir, manifestName+tmpSuffix)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if s.wal, err = openWAL(filepath.Join(dir, walDirName), segMax, s.disk); err != nil {
		return nil, err
	}
	if err := s.validateCoverage(s.man.Latest); err != nil {
		return nil, err
	}
	// A dead incarnation's deposits for a barrier it never completed, and an
	// epoch it wrote without publishing, are files no manifest references.
	return s, s.sweepOrphansLocked()
}

// parseManifest decodes and validates manifest bytes. Everything later code
// indexes by — Latest into Offsets, barrier numbers, deposit file names — is
// checked here, so a manifest that parses cannot panic a reader.
func parseManifest(data []byte) (manifestData, error) {
	var m manifestData
	if err := json.Unmarshal(data, &m); err != nil {
		// The manifest is renamed into place after an fsync; a parse failure
		// means the medium rotted underneath us, not a torn write.
		return manifestData{}, fmt.Errorf("durable: manifest corrupt: %w", err)
	}
	if m.Version != manifestVersion {
		return manifestData{}, fmt.Errorf("durable: manifest version %d, want %d (state directory written by another build)", m.Version, manifestVersion)
	}
	if m.Latest > uint64(len(m.Offsets)) || m.Latest > uint64(len(m.Outputs)) {
		return manifestData{}, fmt.Errorf("durable: manifest corrupt: checkpoint %d completed with %d offsets and %d result epochs", m.Latest, len(m.Offsets), len(m.Outputs))
	}
	for i, off := range m.Offsets {
		if off < 0 || (i > 0 && off < m.Offsets[i-1]) {
			return manifestData{}, fmt.Errorf("durable: manifest corrupt: offsets %v are not a non-decreasing sequence", m.Offsets)
		}
	}
	for i, mb := range m.Barriers {
		if mb.Barrier == 0 || mb.Barrier > m.Latest || (i > 0 && mb.Barrier <= m.Barriers[i-1].Barrier) {
			return manifestData{}, fmt.Errorf("durable: manifest corrupt: retained barrier %d out of place (latest %d)", mb.Barrier, m.Latest)
		}
		for _, d := range mb.Deposits {
			if d.File != filepath.Base(d.File) || !strings.HasPrefix(d.File, snapPrefix) {
				return manifestData{}, fmt.Errorf("durable: manifest corrupt: deposit file name %q", d.File)
			}
		}
	}
	return m, nil
}

// validateCoverage checks that recovering at barrier k is possible with the
// retained WAL: the replay start offset must still be on disk. Failing here
// is loud and final — it means an fsynced region of the log vanished.
func (s *Store) validateCoverage(k uint64) error {
	if k == 0 {
		if s.wal.base != 0 {
			return fmt.Errorf("durable: no completed checkpoint but the log starts at record %d (log truncated without a manifest?)", s.wal.base)
		}
		return nil
	}
	replayFrom := s.offsets[k-1]
	if s.wal.Len() < replayFrom {
		return fmt.Errorf("durable: checkpoint %d covers %d log records but only %d survived (fsynced log region lost)", k, replayFrom, s.wal.Len())
	}
	if s.wal.base > replayFrom {
		return fmt.Errorf("durable: checkpoint %d replays from record %d but the log was truncated to %d", k, replayFrom, s.wal.base)
	}
	return nil
}

// WAL returns the store's input log for the runner.
func (s *Store) WAL() *WAL { return s.wal }

// Offsets returns a copy of the covered-offset array.
func (s *Store) Offsets() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.offsets...)
}

// OnSnapshot implements spe.SnapshotSink: the deposit is written and fsynced
// by the calling instance goroutine, then recorded as pending.
func (s *Store) OnSnapshot(op string, instance int, barrier uint64, state []byte) {
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.writers.Add(1)
	}
	s.mu.Unlock()
	if closed {
		return // a dead incarnation draining out
	}
	defer s.writers.Done()
	name := fmt.Sprintf("%s%016x-%s-%d", snapPrefix, barrier, op, instance)
	if err := s.disk.writeFileAtomic(filepath.Join(s.snapDir, name), state); err != nil {
		s.Fail(fmt.Errorf("durable: snapshot %s: %w", name, err))
		return
	}
	dep := manifestDeposit{
		Op:       op,
		Instance: instance,
		File:     name,
		Size:     int64(len(state)),
		CRC:      crc32.Checksum(state, castagnoli),
		Delta:    len(state) > 0 && state[0] == spe.DeltaSnapshotMagic,
	}
	s.mu.Lock()
	if !s.closed {
		m := s.pending[barrier]
		if m == nil {
			m = map[depKey]manifestDeposit{}
			s.pending[barrier] = m
		}
		m[depKey{op: op, instance: instance}] = dep
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Await blocks until `total` distinct instance snapshots have arrived for the
// barrier, or a failure is reported (whichever first). Recording `total` here
// is what arms the MarkComplete completeness assertion for the barrier.
func (s *Store) Await(barrier uint64, total int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expected[barrier] = total
	for len(s.pending[barrier]) < total && s.failure == nil && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return errors.New("durable: store closed")
	}
	return s.failure
}

// CommitOutput writes the canonical results of one epoch, fsynced, for the
// next published manifest to reference. It is idempotent: an epoch already on
// disk is dropped, which is how replay past a committed epoch — after a
// crash, or after InvalidateLatest re-cuts a checkpoint whose epoch had
// committed — exposes every result exactly once.
func (s *Store) CommitOutput(epoch uint64, results []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < uint64(len(s.outputs)) {
		return nil
	}
	if epoch > uint64(len(s.outputs)) {
		return fmt.Errorf("durable: result epoch %d committed with only %d epochs before it", epoch, len(s.outputs))
	}
	data := appendOutput(nil, results)
	if err := s.disk.writeFileAtomic(filepath.Join(s.outDir, outName(epoch)), data); err != nil {
		return err
	}
	s.outputs = append(s.outputs, manifestOutput{Size: int64(len(data)), CRC: crc32.Checksum(data, castagnoli)})
	return nil
}

func outName(epoch uint64) string { return fmt.Sprintf("out-%016x", epoch) }

// appendOutput serializes one epoch's results onto b.
func appendOutput(b []byte, results []string) []byte {
	b = wire.AppendCount(b, len(results))
	for _, r := range results {
		b = wire.AppendBytes(b, []byte(r))
	}
	return b
}

// decodeOutput undoes appendOutput.
func decodeOutput(data []byte) ([]string, error) {
	r := wire.NewReader(data)
	out := make([]string, r.Count("result count", 4))
	for i := range out {
		out[i] = string(r.Bytes("result"))
	}
	return out, r.Finish("result epoch")
}

// Committed returns every committed result in epoch order: exactly what the
// published manifest references, verified by size and CRC.
func (s *Store) Committed() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for e, o := range s.man.Outputs {
		data, err := s.disk.readVerified(filepath.Join(s.outDir, outName(uint64(e))), o.Size, o.CRC)
		if err != nil {
			return nil, err
		}
		rs, err := decodeOutput(data)
		if err != nil {
			return nil, fmt.Errorf("durable: result epoch %d: %w", e, err)
		}
		out = append(out, rs...)
	}
	return out, nil
}

// MarkComplete is the commit point of a checkpoint, and of the result epoch
// the barrier closes. It refuses the mark unless the barrier was awaited,
// every expected (op, instance) deposit is present, and epoch barrier-1 is on
// disk — a mark published without them would name a checkpoint that cannot
// be restored, or lose the epoch. On success it fsyncs the WAL, publishes a
// new manifest referencing the barrier with its control blob and covered log
// offset, sweeps files the new manifest no longer references, and truncates
// WAL segments below the previous checkpoint's replay offset.
func (s *Store) MarkComplete(barrier uint64, control []byte, offset int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, awaited := s.expected[barrier]
	if !awaited {
		return fmt.Errorf("durable: completion mark for barrier %d arrived before its deposits were awaited", barrier)
	}
	if got := len(s.pending[barrier]); got != exp {
		return fmt.Errorf("durable: barrier %d has %d of %d expected deposits; refusing completion mark", barrier, got, exp)
	}
	if barrier == 0 || uint64(len(s.offsets)) < barrier-1 {
		return fmt.Errorf("durable: barrier %d marked with only %d barriers before it; refusing completion mark", barrier, len(s.offsets))
	}
	if uint64(len(s.outputs)) < barrier {
		return fmt.Errorf("durable: barrier %d closes result epoch %d, which is not on disk; refusing completion mark", barrier, barrier-1)
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	// The barrier's deposits were renamed into the snapshot directory by the
	// instance goroutines; make those directory entries durable before a
	// manifest referencing them is published.
	if err := s.disk.syncDir(s.snapDir); err != nil {
		return err
	}
	if uint64(len(s.offsets)) < barrier {
		s.offsets = append(s.offsets, 0)
	}
	s.offsets[barrier-1] = offset

	byBarrier := map[uint64]manifestBarrier{}
	for _, mb := range s.man.Barriers {
		byBarrier[mb.Barrier] = mb
	}
	nb := manifestBarrier{Barrier: barrier, Control: append([]byte(nil), control...)}
	keys := make([]depKey, 0, exp)
	for k := range s.pending[barrier] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return keys[i].instance < keys[j].instance
	})
	for _, k := range keys {
		nb.Deposits = append(nb.Deposits, s.pending[barrier][k])
	}
	byBarrier[barrier] = nb

	m := manifestData{Latest: barrier}
	for b := retainFrom(byBarrier, barrier); b <= barrier; b++ {
		if mb, ok := byBarrier[b]; ok {
			m.Barriers = append(m.Barriers, mb)
		}
	}
	if err := s.publish(m); err != nil {
		return err
	}
	for b := range s.pending {
		if b <= barrier {
			delete(s.pending, b)
		}
	}
	for b := range s.expected {
		if b <= barrier {
			delete(s.expected, b)
		}
	}
	if err := s.sweepOrphansLocked(); err != nil {
		return err
	}
	if barrier >= 2 {
		return s.wal.Truncate(s.offsets[barrier-2])
	}
	return nil
}

// PublishOutput commits the result epochs written since the last manifest
// without cutting a checkpoint: how a finished job's final epoch, which no
// barrier closes, becomes part of the directory.
func (s *Store) PublishOutput() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publish(manifestData{Latest: s.man.Latest, Barriers: s.man.Barriers})
}

// publish completes m with the offset and output arrays and makes it the
// manifest. The result files it references were fsynced when written; their
// directory entries are made durable first. Requires s.mu held.
func (s *Store) publish(m manifestData) error {
	if err := s.disk.syncDir(s.outDir); err != nil {
		return err
	}
	m.Version = manifestVersion
	m.Offsets = append([]int(nil), s.offsets...)
	m.Outputs = append([]manifestOutput(nil), s.outputs...)
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := s.disk.writeFileAtomic(filepath.Join(s.dir, manifestName), data); err != nil {
		return err
	}
	if err := s.disk.syncDir(s.dir); err != nil {
		return err
	}
	s.man = m
	return nil
}

// retainFrom computes the oldest barrier the manifest must keep: the full
// base of every delta chain reachable from the newest barrier and from its
// predecessor (the fallback checkpoint).
func retainFrom(byBarrier map[uint64]manifestBarrier, latest uint64) uint64 {
	keep := latest
	if latest >= 2 {
		if _, ok := byBarrier[latest-1]; ok {
			keep = latest - 1
		}
	}
	for _, anchor := range []uint64{latest, keep} {
		mb, ok := byBarrier[anchor]
		if !ok {
			continue
		}
		for _, d := range mb.Deposits {
			b := anchor
			for {
				dep, ok := depositAt(byBarrier, b, d.Op, d.Instance)
				if !ok || !dep.Delta || b == 0 {
					break
				}
				b--
			}
			if b < keep {
				keep = b
			}
		}
	}
	return keep
}

func depositAt(byBarrier map[uint64]manifestBarrier, b uint64, op string, instance int) (manifestDeposit, bool) {
	mb, ok := byBarrier[b]
	if !ok {
		return manifestDeposit{}, false
	}
	for _, d := range mb.Deposits {
		if d.Op == op && d.Instance == instance {
			return d, true
		}
	}
	return manifestDeposit{}, false
}

// sweepOrphansLocked deletes snapshot files neither the manifest nor a
// pending (in-flight) deposit references, and result files past the epochs
// written so far. Requires s.mu held (or no other user yet).
func (s *Store) sweepOrphansLocked() error {
	referenced := map[string]bool{}
	for _, mb := range s.man.Barriers {
		for _, d := range mb.Deposits {
			referenced[d.File] = true
		}
	}
	for _, deps := range s.pending {
		for _, d := range deps {
			referenced[d.File] = true
		}
	}
	for e := range s.outputs {
		referenced[outName(uint64(e))] = true
	}
	for _, dir := range []string{s.snapDir, s.outDir} {
		entries, err := s.disk.readDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() || referenced[e.Name()] {
				continue
			}
			if err := s.disk.remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// LatestComplete returns the newest completed barrier, if any.
func (s *Store) LatestComplete() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Latest, s.man.Latest > 0
}

// FetchChain returns one instance's snapshot chain at a completed barrier — a
// full snapshot followed by zero or more incremental deltas, in application
// order — walking deposits backwards from the barrier until a full snapshot
// anchors the chain and verifying each file's size and CRC against the
// manifest. Any missing, torn, or rotted link fails the whole chain with an
// error wrapping ErrDamaged, and recovery falls back to the previous
// checkpoint; any other error is the disk failing the read, which says
// nothing about the checkpoint.
func (s *Store) FetchChain(barrier uint64, op string, instance int) ([][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byBarrier := map[uint64]manifestBarrier{}
	for _, mb := range s.man.Barriers {
		byBarrier[mb.Barrier] = mb
	}
	var chain [][]byte
	for b := barrier; ; b-- {
		dep, ok := depositAt(byBarrier, b, op, instance)
		if !ok {
			return nil, fmt.Errorf("%w: no deposit of %s[%d] at barrier %d", ErrDamaged, op, instance, b)
		}
		data, err := s.disk.readVerified(filepath.Join(s.snapDir, dep.File), dep.Size, dep.CRC)
		if err != nil {
			return nil, err
		}
		chain = append(chain, data)
		if !dep.Delta {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// ErrDamaged marks a file the manifest references that is missing from the
// directory, or whose size or CRC32C disagrees with the manifest.
var ErrDamaged = errors.New("durable: file does not match the manifest")

// readVerified reads a file the manifest references and holds it to the
// recorded size and CRC32C.
func (d disk) readVerified(path string, size int64, sum uint32) ([]byte, error) {
	data, err := d.readFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s is missing", ErrDamaged, filepath.Base(path))
	}
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != size || crc32.Checksum(data, castagnoli) != sum {
		return nil, fmt.Errorf("%w: %s has %d bytes, want %d, or a CRC mismatch", ErrDamaged, filepath.Base(path), len(data), size)
	}
	return data, nil
}

// Control returns the control blob of a retained completed barrier.
func (s *Store) Control(barrier uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mb := range s.man.Barriers {
		if mb.Barrier == barrier {
			return mb.Control, true
		}
	}
	return nil, false
}

// InvalidateLatest demotes the latest completed checkpoint — its deposits
// failed verification — publishing a manifest whose Latest is the previous
// retained barrier. The offsets array is kept whole so the demoted barrier is
// re-cut at the same log offset during replay, and so are the result epochs:
// the epoch that committed with the demoted barrier stays committed, and its
// regenerated copy is dropped by CommitOutput. Persisting the demotion means
// a crash during the retry does not loop on the same rotten checkpoint.
func (s *Store) InvalidateLatest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.man.Latest
	if old == 0 {
		return errors.New("durable: no completed checkpoint left to invalidate")
	}
	m := manifestData{}
	for _, mb := range s.man.Barriers {
		if mb.Barrier < old {
			m.Latest = mb.Barrier
			m.Barriers = append(m.Barriers, mb)
		}
	}
	if err := s.validateCoverage(m.Latest); err != nil {
		return err
	}
	if err := s.publish(m); err != nil {
		return err
	}
	return s.sweepOrphansLocked()
}

// Fail records an instance failure and wakes any Await: the in-flight
// checkpoint can never complete (a dead instance will not pass its barrier),
// so the coordinator must stop waiting and start recovery.
func (s *Store) Fail(err error) {
	if err == nil {
		err = errors.New("durable: unspecified instance failure")
	}
	s.mu.Lock()
	if s.failure == nil {
		s.failure = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Failure returns the recorded failure, if any.
func (s *Store) Failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// Close detaches the store: subsequent deposit writes are dropped, the ones
// already under way finish, and the WAL is sealed. The runner calls this on
// the dying incarnation's store so its background drain stops touching the
// directory the next incarnation owns — the in-process stand-in for the
// process actually being gone. Without the wait, a deposit the drain had
// begun could rename its temp file away under the successor writing the same
// name.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.writers.Wait()
	return s.wal.Close()
}
