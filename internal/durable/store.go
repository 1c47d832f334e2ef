package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"astream/internal/checkpoint"
	"astream/internal/spe"
)

const (
	snapDirName  = "snap"
	walDirName   = "wal"
	manifestName = "manifest"
	tmpSuffix    = ".tmp"
)

// manifestData is the store's single source of truth on disk, rewritten
// atomically (tmp + fsync + rename) only when a checkpoint completes. A
// snapshot deposit therefore becomes real exactly when a manifest referencing
// it is published; files a crashed incarnation wrote for a checkpoint that
// never completed are unreferenced and swept as orphans on recovery.
// manifestVersion names the layout of everything the manifest references —
// snapshot deposits, control blobs and WAL records, all internal/wire
// compositions — so a state directory written by a build with other layouts
// fails at open instead of at the first record that happens not to decode.
const manifestVersion = 3

type manifestData struct {
	Version int
	// Latest is the newest completed barrier; 0 means none.
	Latest uint64
	// Offsets[i] is the input-log offset covered by barrier i+1, mirroring
	// checkpoint.Manifest so a restarted process re-cuts identical epochs.
	Offsets []int
	// Barriers holds the retained completed checkpoints: the latest, its
	// predecessor (the fallback when the latest turns out corrupt), and any
	// older barrier still serving as the full base of a delta chain.
	Barriers []manifestBarrier
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

type depKey struct {
	op       string
	instance int
}

// Store is the durable checkpoint store: snapshot deposits as individual
// files committed by atomic rename, a JSON manifest as the commit record, and
// a segmented WAL for the input log. It implements checkpoint.Store and
// checkpoint.BackendHooks.
type Store struct {
	dir     string
	snapDir string
	hook    Hook
	wal     *WAL

	mu     sync.Mutex
	cond   *sync.Cond
	gen    uint64
	closed bool

	// pending holds deposits and control blobs for barriers not yet marked
	// complete; they move into the manifest at MarkComplete.
	pending  map[uint64]map[depKey]manifestDeposit
	expected map[uint64]int
	controls map[uint64][]byte

	// offsets is the in-memory master of the covered-offset array: loaded
	// from the manifest, extended by NoteOffset, persisted at MarkComplete.
	offsets []int
	man     manifestData
	failure error
}

var (
	_ checkpoint.Store        = (*Store)(nil)
	_ checkpoint.BackendHooks = (*Store)(nil)
)

// Options configures OpenStore.
type Options struct {
	// Hook injects faults into every disk mutation; nil in production.
	Hook Hook
	// SegmentBytes is the WAL segment roll threshold (DefaultSegmentBytes
	// when zero).
	SegmentBytes int
}

// OpenStore opens (or initialises) the durable state directory: loads the
// manifest, opens the WAL — truncating a torn tail, failing loudly on sealed
// corruption — sweeps stray temp files, and validates that the retained log
// still covers the latest completed checkpoint.
func OpenStore(dir string, opts Options) (*Store, error) {
	segMax := opts.SegmentBytes
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	snapDir := filepath.Join(dir, snapDirName)
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	// A crash between manifest prepare and rename leaves a stray temp file;
	// the published manifest is still the old one, so just discard it.
	if err := os.Remove(filepath.Join(dir, manifestName+tmpSuffix)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	wal, err := openWAL(filepath.Join(dir, walDirName), segMax, opts.Hook)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		snapDir:  snapDir,
		hook:     opts.Hook,
		wal:      wal,
		pending:  map[uint64]map[depKey]manifestDeposit{},
		expected: map[uint64]int{},
		controls: map[uint64][]byte{},
		offsets:  append([]int(nil), man.Offsets...),
		man:      man,
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.validateCoverage(s.man.Latest); err != nil {
		return nil, err
	}
	return s, nil
}

func loadManifest(path string) (manifestData, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return manifestData{Version: manifestVersion}, nil
	}
	if err != nil {
		return manifestData{}, err
	}
	var m manifestData
	if err := json.Unmarshal(data, &m); err != nil {
		// The manifest is renamed into place after an fsync; a parse failure
		// means the medium rotted underneath us, not a torn write.
		return manifestData{}, fmt.Errorf("durable: manifest corrupt: %w", err)
	}
	if m.Version != manifestVersion {
		return manifestData{}, fmt.Errorf("durable: manifest version %d, want %d (state directory written by another build)", m.Version, manifestVersion)
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
	if len(s.offsets) < int(k) {
		return fmt.Errorf("durable: checkpoint %d completed but only %d offsets recorded", k, len(s.offsets))
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

// Offsets returns a copy of the covered-offset array for checkpoint.Manifest.
func (s *Store) Offsets() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.offsets...)
}

// storeGate is the spe.SnapshotSink handed to one engine incarnation.
type storeGate struct {
	s   *Store
	gen uint64
}

// OnSnapshot implements spe.SnapshotSink.
func (g storeGate) OnSnapshot(op string, instance int, barrier uint64, state []byte) {
	g.s.onSnapshot(g.gen, op, instance, barrier, state)
}

// NewGate implements checkpoint.Store.
func (s *Store) NewGate() spe.SnapshotSink {
	s.mu.Lock()
	s.gen++
	g := storeGate{s: s, gen: s.gen}
	s.mu.Unlock()
	return g
}

func (s *Store) onSnapshot(gen uint64, op string, instance int, barrier uint64, state []byte) {
	s.mu.Lock()
	stale := gen != s.gen || s.closed
	s.mu.Unlock()
	if stale {
		return
	}
	name := fmt.Sprintf("snap-%016x-%s-%d", barrier, op, instance)
	if err := writeFileAtomic(filepath.Join(s.snapDir, name), state, s.hook); err != nil {
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
	if gen == s.gen && !s.closed {
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

// Await implements checkpoint.Store. Recording `total` here is what arms the
// MarkComplete completeness assertion for the barrier.
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

// SetControl implements checkpoint.Store.
func (s *Store) SetControl(barrier uint64, b []byte) {
	s.mu.Lock()
	s.controls[barrier] = append([]byte(nil), b...)
	s.mu.Unlock()
}

// NoteOffset implements checkpoint.BackendHooks.
func (s *Store) NoteOffset(barrier uint64, offset int) {
	s.mu.Lock()
	for len(s.offsets) < int(barrier) {
		s.offsets = append(s.offsets, 0)
	}
	s.offsets[barrier-1] = offset
	s.mu.Unlock()
}

// SupportsDeltas implements checkpoint.BackendHooks: the manifest resolves
// base+delta chains, so incremental snapshots are allowed.
func (s *Store) SupportsDeltas() bool { return true }

// MarkComplete implements checkpoint.Store: the commit point of a checkpoint.
// It refuses the mark unless every expected (op, instance) deposit, the
// control blob, and the covered offset are present — a mark published without
// them would name a checkpoint that cannot be restored. On success it fsyncs
// the WAL, publishes a new manifest referencing the barrier, sweeps files the
// new manifest no longer references, and truncates WAL segments below the
// previous checkpoint's replay offset.
func (s *Store) MarkComplete(barrier uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	exp, awaited := s.expected[barrier]
	if !awaited {
		return fmt.Errorf("durable: completion mark for barrier %d arrived before its deposits were awaited", barrier)
	}
	if got := len(s.pending[barrier]); got != exp {
		return fmt.Errorf("durable: barrier %d has %d of %d expected deposits; refusing completion mark", barrier, got, exp)
	}
	ctrl, ok := s.controls[barrier]
	if !ok {
		return fmt.Errorf("durable: barrier %d has no control snapshot; refusing completion mark", barrier)
	}
	if len(s.offsets) < int(barrier) {
		return fmt.Errorf("durable: barrier %d has no covered log offset; refusing completion mark", barrier)
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	// The barrier's deposits were renamed into the snapshot directory by the
	// instance goroutines; make those directory entries durable before a
	// manifest referencing them is published.
	if err := syncDir(s.snapDir); err != nil {
		return err
	}

	byBarrier := map[uint64]manifestBarrier{}
	for _, mb := range s.man.Barriers {
		byBarrier[mb.Barrier] = mb
	}
	nb := manifestBarrier{Barrier: barrier, Control: ctrl}
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

	m := manifestData{Version: manifestVersion, Latest: barrier, Offsets: append([]int(nil), s.offsets[:barrier]...)}
	for b := retainFrom(byBarrier, barrier); b <= barrier; b++ {
		if mb, ok := byBarrier[b]; ok {
			m.Barriers = append(m.Barriers, mb)
		}
	}
	if err := s.persistManifest(m); err != nil {
		return err
	}
	s.man = m
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
	for b := range s.controls {
		if b <= barrier {
			delete(s.controls, b)
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

func (s *Store) persistManifest(m manifestData) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(s.dir, manifestName), data, s.hook); err != nil {
		return err
	}
	return syncDir(s.dir)
}

// sweepOrphansLocked deletes snapshot files neither the manifest nor a
// pending (in-flight) deposit references. Requires s.mu held.
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
	entries, err := os.ReadDir(s.snapDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || referenced[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(s.snapDir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// DropAfter implements checkpoint.Store: discard deposits above the barrier —
// in-memory pending state directly, on-disk files via the orphan sweep (a
// crashed incarnation's deposits were never referenced by a manifest).
func (s *Store) DropAfter(barrier uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for b := range s.pending {
		if b > barrier {
			delete(s.pending, b)
		}
	}
	for b := range s.expected {
		if b > barrier {
			delete(s.expected, b)
		}
	}
	for b := range s.controls {
		if b > barrier {
			delete(s.controls, b)
		}
	}
	if err := s.sweepOrphansLocked(); err != nil && s.failure == nil {
		s.failure = err
	}
}

// LatestComplete implements checkpoint.Store.
func (s *Store) LatestComplete() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Latest, s.man.Latest > 0
}

// FetchChain implements checkpoint.Store: walk deposits backwards from the
// barrier until a full snapshot anchors the chain, verifying each file's size
// and CRC against the manifest. Any missing, torn, or rotted link fails the
// whole chain, and recovery falls back to the previous checkpoint.
func (s *Store) FetchChain(barrier uint64, op string, instance int) ([][]byte, bool) {
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
			return nil, false
		}
		data, err := os.ReadFile(filepath.Join(s.snapDir, dep.File))
		if err != nil {
			return nil, false
		}
		if int64(len(data)) != dep.Size || crc32.Checksum(data, castagnoli) != dep.CRC {
			return nil, false
		}
		chain = append(chain, data)
		if !dep.Delta {
			break
		}
		if b == 0 {
			return nil, false
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, true
}

// Control implements checkpoint.Store.
func (s *Store) Control(barrier uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.controls[barrier]; ok {
		return b, true
	}
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
// re-cut at the same log offset during replay. Persisting the demotion means
// a crash during the retry does not loop on the same rotten checkpoint.
func (s *Store) InvalidateLatest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.man.Latest
	if old == 0 {
		return errors.New("durable: no completed checkpoint left to invalidate")
	}
	var next uint64
	for _, mb := range s.man.Barriers {
		if mb.Barrier < old && mb.Barrier > next {
			next = mb.Barrier
		}
	}
	if err := s.validateCoverage(next); err != nil {
		return err
	}
	m := manifestData{Version: manifestVersion, Latest: next, Offsets: append([]int(nil), s.man.Offsets...)}
	for _, mb := range s.man.Barriers {
		if mb.Barrier != old {
			m.Barriers = append(m.Barriers, mb)
		}
	}
	if err := s.persistManifest(m); err != nil {
		return err
	}
	s.man = m
	return s.sweepOrphansLocked()
}

// Fail implements checkpoint.Store.
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

// Failure implements checkpoint.Store.
func (s *Store) Failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// ClearFailure implements checkpoint.Store.
func (s *Store) ClearFailure() {
	s.mu.Lock()
	s.failure = nil
	s.mu.Unlock()
}

// Close detaches the store: subsequent deposit writes are dropped and the WAL
// is sealed. A chaos test calls this on the dying incarnation's store so its
// background drain stops touching the directory the next incarnation owns —
// the in-process stand-in for the process actually being gone.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return s.wal.Close()
}

// writeFileAtomic publishes b at path via the classic crash-safe sequence:
// write a temp file, fsync it, close it, rename over path. Every step runs
// through the fault hook. The containing directory is fsynced by the caller
// (once per checkpoint) rather than per file.
func writeFileAtomic(path string, b []byte, hook Hook) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	towrite := b
	var inject error
	if hook != nil {
		towrite, inject = hook.BeforeWrite(tmp, b)
	}
	if len(towrite) > 0 {
		if _, err := f.Write(towrite); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if inject != nil {
		return errors.Join(inject, f.Close())
	}
	if hook != nil {
		if err := hook.BeforeSync(tmp); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if hook != nil {
		if err := hook.BeforeRename(tmp, path); err != nil {
			return err
		}
	}
	return os.Rename(tmp, path)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}
