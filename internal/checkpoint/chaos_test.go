package checkpoint

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/fault"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// The DiskPlan satisfies the hook seam structurally; pin it here so a drift
// in either signature fails compilation where both packages are visible.
var _ durable.Hook = (*fault.DiskPlan)(nil)

// The chaos harness drives one deterministic workload twice: once fault-free
// and never restarted, and once under a seeded plan of engine faults
// (instance kills, exchange batch faults) and a seeded plan of disk faults
// (torn writes, corrupted frames, lying fsyncs, crashes before rename). Every
// failure is a process death: the runner is crashed, its store closed, and
// the next incarnation is built by Open from the state directory — it is
// handed nothing else. The committed output the last incarnation reads back
// from the directory must be byte-identical to the clean run's.

type stepKind int

const (
	stepSubmit stepKind = iota
	stepStop
	stepIngest
	stepCheckpoint
)

type step struct {
	kind   stepKind
	query  *core.Query
	ord    int
	stream int
	tuple  event.Tuple
}

func testQuery(kind core.Kind) *core.Query {
	switch kind {
	case core.KindJoin:
		return &core.Query{Kind: core.KindJoin, Arity: 2,
			Predicates: []expr.Predicate{expr.True(), expr.True()},
			Window:     window.TumblingSpec(8), AggField: -1}
	default:
		return &core.Query{Kind: core.KindAggregation, Arity: 1,
			Predicates: []expr.Predicate{expr.True().And(expr.Comparison{Field: 0, Op: expr.GT, Value: 20})},
			Window:     window.TumblingSpec(10), Agg: sqlstream.AggSum, AggField: 1}
	}
}

// workload is the one step generator: the queries are submitted first, then
// `phases` phases of `ticks` event-time ticks on 2 streams, each phase ending
// in a checkpoint; the first query is stopped at the end of phase stopPhase
// (none when negative). It must be identical across the clean run, the
// chaotic run, and every recovery — all determinism lives here.
func workload(seed int64, phases, ticks, stopPhase int, queries ...*core.Query) []step {
	rng := rand.New(rand.NewSource(seed))
	var steps []step
	for _, q := range queries {
		steps = append(steps, step{kind: stepSubmit, query: q})
	}
	now := event.Time(0)
	for phase := 0; phase < phases; phase++ {
		for i := 0; i < ticks; i++ {
			now++
			for s := 0; s < 2; s++ {
				tu := event.Tuple{Key: int64(rng.Intn(3)), Time: now}
				for f := range tu.Fields {
					tu.Fields[f] = int64(rng.Intn(100))
				}
				steps = append(steps, step{kind: stepIngest, stream: s, tuple: tu})
			}
		}
		if phase == stopPhase {
			steps = append(steps, step{kind: stepStop, ord: 1})
		}
		steps = append(steps, step{kind: stepCheckpoint})
	}
	return steps
}

// chaosSteps is the chaos suites' workload: a shared aggregation and a shared
// join, 5 phases of 20 ticks, the aggregation stopped mid-run.
func chaosSteps() []step {
	return workload(41, 5, 20, 2, testQuery(core.KindAggregation), testQuery(core.KindJoin))
}

func apply(r *Runner, s step) error {
	switch s.kind {
	case stepSubmit:
		return r.Submit(s.query)
	case stepStop:
		return r.StopOrdinal(s.ord)
	case stepIngest:
		return r.Ingest(s.stream, s.tuple)
	default:
		_, err := r.Checkpoint()
		return err
	}
}

// applyUntilError applies steps[from:] and returns the index of the first
// step that failed with its error, or len(steps) and nil.
func applyUntilError(r *Runner, steps []step, from int) (int, error) {
	for i := from; i < len(steps); i++ {
		if err := apply(r, steps[i]); err != nil {
			return i, err
		}
	}
	return len(steps), nil
}

func testConfig(plan *fault.Plan, deltaEvery int) core.Config {
	cfg := core.Config{
		Streams: 2, Parallelism: 2, Nodes: 2, WatermarkEvery: 1,
		NowNanos:           func() int64 { return 1 },
		SnapshotDeltaEvery: deltaEvery,
	}
	if plan != nil {
		cfg.FaultHook = plan
	}
	return cfg
}

func mustOpen(t *testing.T, cfg core.Config, dir string, opts durable.Options) *Runner {
	t.Helper()
	r, err := Open(cfg, dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return r
}

func mustFinish(t *testing.T, r *Runner) []string {
	t.Helper()
	out, err := r.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return out
}

// cleanRun produces the reference output: the fault-free, never-restarted
// run of the steps on a fresh directory.
func cleanRun(t *testing.T, steps []step) []string {
	t.Helper()
	r := mustOpen(t, testConfig(nil, 0), t.TempDir(), durable.Options{})
	if i, err := applyUntilError(r, steps, 0); err != nil {
		t.Fatalf("clean step %d: %v", i, err)
	}
	out := mustFinish(t, r)
	if len(out) == 0 {
		t.Fatal("clean run produced nothing")
	}
	return out
}

func assertSameOutput(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("committed output diverged: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed result %d: %q, want %q", i, got[i], want[i])
		}
	}
}

// runChaos drives the steps and the final Finish under both fault plans
// (either may be nil) on one fresh directory. Any failed call is a process
// death — a failed ingest was never acknowledged into the log and is retried
// by the next incarnation, a failed checkpoint or finish logged nothing — and
// Open itself can hit a pending fault (a kill that comes due during suffix
// replay, a disk fault while re-cutting): it is simply called again; fired
// one-shot ops never recur. Returns the output the last incarnation committed
// and the number of recoveries.
func runChaos(t *testing.T, steps []step, plan *fault.Plan, disk *fault.DiskPlan, deltaEvery int) ([]string, int) {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig(plan, deltaEvery)
	opts := durable.Options{SegmentBytes: 1 << 10}
	if disk != nil {
		opts.Hook = disk
	}
	const maxRecoveries = 32
	recoveries := 0
	died := func(err error) {
		if recoveries++; recoveries > maxRecoveries {
			t.Fatalf("no stable incarnation after %d recoveries; last: %v", maxRecoveries, err)
		}
	}
	var r *Runner
	for i := 0; ; {
		if r == nil {
			var err error
			if r, err = Open(cfg, dir, opts); err != nil {
				r = nil
				died(err)
				continue
			}
		}
		next, err := applyUntilError(r, steps, i)
		if i = next; err == nil {
			var out []string
			if out, err = r.Finish(); err == nil {
				return out, recoveries
			}
		}
		r.Crash()
		r = nil
		died(err)
	}
}

// enginePlan is the seeded engine-fault schedule of the chaos suites.
func enginePlan(seed int64) *fault.Plan {
	return fault.RandomPlan(seed, fault.RandomConfig{
		Ops:       []string{"src-0", "src-1", "select-0", "select-1", "join-0", "aggregate"},
		Instances: 2, MaxTuples: 180, Barriers: 5, Batches: 30,
		NumFaults: 3, AllowBatchFaults: true,
	})
}

// TestDurableChaosSeededSchedules is the headline robustness test: seeded
// engine-fault and disk-fault schedules run together, every incarnation is
// rebuilt from the directory only, and the committed output stays
// byte-identical to the fault-free run — under full snapshots and under
// base+delta chains. The engine-only row of each seed is the same schedule
// with no disk plan at all.
//
// Ordered so the short-mode prefix covers schedules that actually fire: 23
// drops a source batch, 42 kills an aggregate instance mid-stream, 58 kills an
// aggregate instance at barrier alignment — the dying incarnation deposits
// snapshots for a barrier it never completes, and those orphans must not
// reach the successor's retry of the same barrier.
func TestDurableChaosSeededSchedules(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)

	seeds := []int64{23, 42, 58, 11, 77}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		for _, deltaEvery := range []int{0, 3} {
			deltaEvery := deltaEvery
			t.Run(fmt.Sprintf("seed%d-delta%d", seed, deltaEvery), func(t *testing.T) {
				plan := enginePlan(seed)
				disk := fault.RandomDiskPlan(seed, fault.RandomDiskConfig{
					NumFaults: 3, MaxWAL: 200, MaxSnap: 30, MaxManifest: 5,
				})
				got, recoveries := runChaos(t, steps, plan, disk, deltaEvery)
				t.Logf("seed %d delta %d: %d recoveries, engine: %v, disk: %v",
					seed, deltaEvery, recoveries, plan.Fired(), disk.Fired())
				assertSameOutput(t, got, want)
			})
		}
		t.Run(fmt.Sprintf("seed%d-engine-only", seed), func(t *testing.T) {
			plan := enginePlan(seed)
			got, recoveries := runChaos(t, steps, plan, nil, 0)
			t.Logf("seed %d: %d recoveries, injections: %v", seed, recoveries, plan.Fired())
			assertSameOutput(t, got, want)
		})
	}
}

// TestDurableChaosDiskOnly isolates the disk-fault axis: no engine faults at
// all, a dense disk schedule, and the same byte-identity bar. This pins the
// recovery semantics of each injected kind — a torn WAL append is truncated
// and retried, a corrupted frame never acknowledges, a lying fsync loses only
// unacknowledged state, an unpublished manifest leaves the previous
// checkpoint authoritative.
func TestDurableChaosDiskOnly(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)
	for _, seed := range []int64{7, 19, 31} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			disk := fault.RandomDiskPlan(seed, fault.RandomDiskConfig{
				NumFaults: 6, MaxWAL: 400, MaxSnap: 40, MaxManifest: 6,
			})
			got, recoveries := runChaos(t, steps, nil, disk, 3)
			t.Logf("seed %d: %d recoveries, disk: %v", seed, recoveries, disk.Fired())
			assertSameOutput(t, got, want)
		})
	}
}

// TestChaosKillRecoversFromSnapshot pins the headline scenario: a kill
// mid-stream fails the next checkpoint, the successor restores operators from
// the latest completed snapshot and replays only the log suffix, and the
// committed output is byte-identical to the fault-free run.
func TestChaosKillRecoversFromSnapshot(t *testing.T) {
	steps := chaosSteps()
	want := cleanRun(t, steps)

	// Kill one aggregate instance partway through the run (tuples are
	// counted per instance; at least one checkpoint has completed by the
	// 20th tuple that hashes to instance 0).
	plan := fault.NewPlan(fault.Op{Kind: fault.KillAfterTuples, Op: "aggregate", Instance: 0, N: 20})
	cfg, dir := testConfig(plan, 0), t.TempDir()
	r := mustOpen(t, cfg, dir, durable.Options{})
	i, ckptErr := applyUntilError(r, steps, 0)
	if ckptErr == nil {
		t.Fatal("injected kill never surfaced at a checkpoint")
	}
	if steps[i].kind != stepCheckpoint || !strings.Contains(ckptErr.Error(), "injected fault") {
		t.Fatalf("step %d (kind %d): failure reason lost: %v", i, steps[i].kind, ckptErr)
	}
	k, ok := r.Store().LatestComplete()
	if !ok {
		t.Fatal("no completed checkpoint to recover from")
	}
	offsets, logLen := r.Store().Offsets(), r.Store().WAL().Len()
	if len(offsets) != int(k) {
		t.Fatalf("store has %d offsets, latest complete checkpoint is %d", len(offsets), k)
	}
	if suffix := logLen - offsets[k-1]; suffix <= 0 || suffix >= logLen {
		t.Fatalf("suffix replay covers %d of %d records; want a strict suffix", suffix, logLen)
	}
	r.Crash()

	r = mustOpen(t, cfg, dir, durable.Options{})
	if k2, _ := r.Store().LatestComplete(); k2 != k {
		t.Fatalf("successor restored checkpoint %d, want %d", k2, k)
	}
	// Resume from the failed checkpoint step.
	if i, err := applyUntilError(r, steps, i); err != nil {
		t.Fatalf("post-recovery step %d: %v", i, err)
	}
	assertSameOutput(t, mustFinish(t, r), want)
	if len(plan.Fired()) != 1 {
		t.Fatalf("expected exactly one injection, got %v", plan.Fired())
	}
}

// TestChaosRunsTheIndex is the differential case for the selection index:
// seed 42's engine plan over a workload whose two streams both carry a real
// predicate for the whole run. The plan kills an instance, the successor
// restores every selection from its snapshot with the fault hook installed,
// and each restored instance must hold a compiled index with dispatch nodes —
// the code production classifies through — while the committed output stays
// byte-identical to the clean run, which has no hook at all.
func TestChaosRunsTheIndex(t *testing.T) {
	selective := testQuery(core.KindJoin)
	selective.Predicates = []expr.Predicate{
		expr.True().And(expr.Comparison{Field: 1, Op: expr.LT, Value: 70}),
		expr.True().And(expr.Comparison{Field: 2, Op: expr.GE, Value: 15}),
	}
	steps := workload(41, 5, 20, 2, testQuery(core.KindAggregation), testQuery(core.KindJoin), selective)
	want := cleanRun(t, steps)

	plan := enginePlan(42)
	cfg, dir := testConfig(plan, 0), t.TempDir()
	r := mustOpen(t, cfg, dir, durable.Options{})
	i, err := applyUntilError(r, steps, 0)
	if err == nil || steps[i].kind != stepCheckpoint {
		t.Fatalf("seed 42's kill never failed a checkpoint (stopped at step %d: %v)", i, err)
	}
	r.Crash()

	r = mustOpen(t, cfg, dir, durable.Options{})
	if k, ok := r.Store().LatestComplete(); !ok {
		t.Fatalf("successor did not restore from a snapshot (latest %d)", k)
	}
	// The retried checkpoint is a quiescent point: every instance has passed
	// its barrier and nothing is in flight.
	if err := apply(r, steps[i]); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	for inst, st := range r.Engine().SelectionIndexStats() {
		if st.Nodes == 0 {
			t.Fatalf("restored selection instance %d classifies without a compiled index under the fault hook: %+v", inst, st)
		}
	}
	if i, err := applyUntilError(r, steps, i+1); err != nil {
		t.Fatalf("post-recovery step %d: %v", i, err)
	}
	assertSameOutput(t, mustFinish(t, r), want)
	t.Logf("injections: %v", plan.Fired())
}

// TestChaosQuarantine: a query whose own predicate keeps panicking gets
// quarantined after repeated strikes; the process survives and the other
// query keeps producing.
func TestChaosQuarantine(t *testing.T) {
	// Query IDs are assigned 1, 2, ... in submit order; panic query 1.
	plan := fault.NewPlan(fault.Op{Kind: fault.PanicPredicate, QueryID: 1})
	r := mustOpen(t, testConfig(plan, 0), t.TempDir(), durable.Options{})
	if err := r.Submit(testQuery(core.KindAggregation)); err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(testQuery(core.KindAggregation)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 60; i++ {
		for s := 0; s < 2; s++ {
			tu := event.Tuple{Key: int64(i % 3), Time: event.Time(i)}
			tu.Fields[0] = 50
			tu.Fields[1] = 1
			if err := r.Ingest(s, tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.Checkpoint(); err != nil {
		t.Fatalf("predicate panics must not kill instances: %v", err)
	}
	for inst, st := range r.Engine().SelectionIndexStats() {
		if inst < 2 && st.Nodes == 0 {
			t.Fatalf("stream-0 selection instance %d has no compiled index under the fault hook: %+v", inst, st)
		}
	}
	out := mustFinish(t, r)
	if q := r.Engine().Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("quarantined = %v, want [1]", q)
	}
	// The engine quarantines on the third strike; evaluations already in
	// flight when the deletion lands may add more.
	if hits := len(plan.Fired()); hits < 3 {
		t.Fatalf("query 1 was quarantined after %d strikes, want at least 3", hits)
	}
	sawQ2 := false
	for _, line := range out {
		if strings.HasPrefix(line, "q1 ") {
			t.Fatalf("quarantined query produced output: %q", line)
		}
		if strings.HasPrefix(line, "q2 ") {
			sawQ2 = true
		}
	}
	if !sawQ2 {
		t.Fatal("healthy query produced no output")
	}
}
