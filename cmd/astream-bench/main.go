// Command astream-bench regenerates the paper's evaluation (Figures 9–20)
// on the Go reproduction: each experiment prints the rows/series the paper
// plots, for AStream and, where applicable, the query-at-a-time baseline.
//
// Usage:
//
//	astream-bench -exp all                 # every figure, quick scale
//	astream-bench -exp fig9 -measure 3s    # one figure, longer steady state
//	astream-bench -exp fig20 -nodes 1,2,4,8,16
//
// Absolute numbers are machine-dependent; the shapes are the result (see
// EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"astream/internal/checkpoint"
	"astream/internal/core"
	"astream/internal/durable"
	"astream/internal/event"
	"astream/internal/experiments"
	"astream/internal/expr"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig9|fig9sweep|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|fig19|fig20|figslide|all")
	warmup := flag.Duration("warmup", 300*time.Millisecond, "steady-state warmup per run")
	measure := flag.Duration("measure", 700*time.Millisecond, "measurement window per run")
	nodesFlag := flag.String("nodes", "4,8", "comma-separated simulated node counts")
	maxQ := flag.Int("maxq", 256, "maximum query parallelism for fig17")
	queries := flag.String("queries", "1,10,50,100,200", "comma-separated query counts for the fig9sweep query-count axis")
	slides := flag.String("slide", "1,8,32,128", "comma-separated window/slide ratios for the figslide sweep")
	jsonDir := flag.String("json", "", "write BENCH_kernels.json, BENCH_recovery.json, and BENCH_figs.json into this directory and exit")
	flag.Parse()

	sc := experiments.Scale{Warmup: *warmup, Measure: *measure}
	nodes := parseInts(*nodesFlag)

	if *jsonDir != "" {
		if err := writeJSON(*jsonDir, sc, nodes); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, fn func()) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n=== %s ===\n", name)
		fn()
	}

	run("fig9", func() {
		fmt.Println("Figure 9: slowest and overall data throughput, SC1 (AStream grid + single-query baseline)")
		for _, m := range experiments.Fig9SC1Throughput(sc, nodes) {
			fmt.Println(" ", m.Row())
		}
	})

	run("fig9sweep", func() {
		fmt.Printf("Figure 9 query-count sweep: SC1 throughput at %s concurrent queries (-queries)\n", *queries)
		for _, n := range nodes {
			for _, m := range experiments.Fig9QuerySweep(sc, n, parseInts(*queries)) {
				fmt.Println(" ", m.Row())
			}
		}
	})

	run("fig10", func() {
		fmt.Println("Figure 10: query deployment latency over time, 1 q/s up to 20 queries")
		for _, sys := range []experiments.System{experiments.Baseline, experiments.AStream} {
			fmt.Printf("  %s:\n", sys)
			for _, pt := range experiments.Fig10DeployTimeline(sys, 20, sc) {
				fmt.Printf("    query %2d: %v\n", pt.Ordinal, pt.Latency.Round(time.Microsecond))
			}
		}
	})

	sc1Lat := func(metric string) {
		fmt.Printf("Figures 11/12: %s across the SC1 grid\n", metric)
		for _, m := range experiments.Fig11And12SC1Latencies(sc, nodes) {
			fmt.Println(" ", m.Row())
		}
	}
	run("fig11", func() { sc1Lat("deployment latency") })
	run("fig12", func() { sc1Lat("event-time latency") })

	sc2 := func() {
		fmt.Println("Figures 13/14/15: SC2 grid (latency, throughput, deployment)")
		for _, m := range experiments.Fig13To15SC2(sc, nodes) {
			fmt.Println(" ", m.Row())
		}
	}
	run("fig13", sc2)
	run("fig14", sc2)
	run("fig15", sc2)

	run("fig16", func() {
		fmt.Println("Figure 16: complex-query timeline (throughput / latency / query count per phase)")
		for i, pt := range experiments.Fig16Timeline(sc) {
			fmt.Printf("  phase %d (t=%6s): %9.0f tup/s  lat=%6.1fms  queries=%d\n",
				i+1, pt.At.Round(time.Millisecond), pt.Throughput, pt.LatencyMS, pt.Queries)
		}
	})

	run("fig17", func() {
		fmt.Println("Figure 17: slowest throughput vs query parallelism (log sweep)")
		for _, kind := range []experiments.QueryKind{experiments.JoinK, experiments.AggK} {
			for _, n := range nodes {
				for _, m := range experiments.Fig17ParallelismSweep(sc, kind, n, *maxQ) {
					fmt.Println(" ", m.Row())
				}
			}
		}
	})

	run("fig18", func() {
		fmt.Println("Figure 18b: single-query sharing overhead (AStream vs baseline)")
		for _, kind := range []experiments.QueryKind{experiments.JoinK, experiments.AggK} {
			a, b, ov := experiments.Fig18bSingleQueryOverhead(sc, kind)
			fmt.Printf("  %-5s astream %9.0f tup/s  baseline %9.0f tup/s  overhead %5.1f%%\n",
				kind, a.SlowestTupS, b.SlowestTupS, 100*ov)
		}
	})

	run("fig19", func() {
		fmt.Println("Figure 19: effect of ad-hoc join queries on existing long-running ones")
		for _, scen := range []string{"SC1", "SC2"} {
			for _, pt := range experiments.Fig19Impact(sc, scen, []int{10, 50, 100}, []int{0, 10, 20, 50}) {
				fmt.Printf("  %dq %s +%2d ad-hoc: before %9.0f tup/s  after %9.0f tup/s\n",
					pt.LongRunning, pt.Scenario, pt.AdHoc, pt.BeforeTupS, pt.AfterTupS)
			}
		}
	})

	run("figslide", func() {
		fmt.Printf("Slide-ratio sweep: aggregation throughput vs window/slide ratio %s (-slide)\n", *slides)
		for _, n := range nodes {
			for _, m := range experiments.FigSlideSweep(sc, n, parseInts(*slides)) {
				fmt.Printf("  ratio %4d: %s\n", int(m.Params.WindowLen/m.Params.WindowSlide), m.Row())
			}
		}
	})

	run("fig20", func() {
		fmt.Println("Figure 20: sustainable ad-hoc queries vs node count (fixed offered rate)")
		counts := []int{25, 50, 100, 200, 400}
		for _, scen := range []string{"SC1", "SC2"} {
			for _, pt := range experiments.Fig20Scalability(sc, scen, nodes, counts, 10000) {
				fmt.Printf("  %2d nodes %s: sustains %d queries\n", pt.Nodes, pt.Scenario, pt.Sustained)
			}
		}
	})

	if *exp != "all" {
		switch *exp {
		case "fig9", "fig9sweep", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "figslide":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
}

// kernelResult is one row of BENCH_kernels.json.
type kernelResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// writeJSON runs the hot-path kernel microbenchmarks and the headline figure
// experiments, emitting machine-readable BENCH_kernels.json and
// BENCH_figs.json for before/after comparisons in CI and PR descriptions.
func writeJSON(dir string, sc experiments.Scale, nodes []int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	var kernels []kernelResult
	for _, kb := range core.KernelBenchmarks() {
		kb := kb
		r := testing.Benchmark(func(b *testing.B) {
			run := kb.New()
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
		kernels = append(kernels, kernelResult{
			Name:        kb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("kernel %-28s %12.1f ns/op %8d B/op %6d allocs/op\n",
			kernels[len(kernels)-1].Name, kernels[len(kernels)-1].NsPerOp,
			kernels[len(kernels)-1].BytesPerOp, kernels[len(kernels)-1].AllocsPerOp)
	}
	if err := writeFileJSON(filepath.Join(dir, "BENCH_kernels.json"), kernels); err != nil {
		return err
	}

	recov, err := benchRecovery()
	if err != nil {
		return fmt.Errorf("recovery benchmark: %w", err)
	}
	printRow := func(label string, row recoveryRow) {
		fmt.Printf("recovery %-22s %2d ckpts  reopen %7.2fms [%.2f–%.2f]  +finish %7.2fms [%.2f–%.2f]  wal %7d B  snap %7d B (%d/%d records replayed)\n",
			label, row.Checkpoints,
			float64(row.Reopen.MedianNanos)/1e6, float64(row.Reopen.MinNanos)/1e6, float64(row.Reopen.MaxNanos)/1e6,
			float64(row.ReopenAndFinish.MedianNanos)/1e6, float64(row.ReopenAndFinish.MinNanos)/1e6, float64(row.ReopenAndFinish.MaxNanos)/1e6,
			row.WALBytes, row.SnapBytes, row.SuffixRecords, row.LogRecords)
	}
	printRow("snapshot+suffix", recov.SnapshotVsReplay.Checkpointed)
	printRow("full-log replay", recov.SnapshotVsReplay.Never)
	fmt.Printf("recovery: snapshot+suffix vs full-log replay, median reopen-and-finish: %.1fx (median of %d fresh directories each)\n",
		recov.SnapshotVsReplay.Speedup, recov.Reps)
	for _, row := range recov.ReopenSweep {
		printRow("reopen sweep", row)
	}
	if err := writeFileJSON(filepath.Join(dir, "BENCH_recovery.json"), recov); err != nil {
		return err
	}

	fig9 := experiments.Fig9SC1Throughput(sc, nodes)
	fig1112 := experiments.Fig11And12SC1Latencies(sc, nodes)
	figSlide := experiments.FigSlideSweep(sc, nodes[0], []int{1, 8, 32, 128})
	fmt.Printf("fig9_sc1_throughput: %d measurements\n", len(fig9))
	fmt.Printf("fig11_12_sc1_latency: %d measurements\n", len(fig1112))
	fmt.Printf("figslide_ratio_sweep: %d measurements\n", len(figSlide))
	figs := map[string][]experiments.Measurement{
		"fig9_sc1_throughput":  fig9,
		"fig11_12_sc1_latency": fig1112,
		"figslide_ratio_sweep": figSlide,
	}
	return writeFileJSON(filepath.Join(dir, "BENCH_figs.json"), figs)
}

// recoveryReport is BENCH_recovery.json. Every number in it comes from the
// one recovery API: a state directory is written by a deterministic script,
// its incarnation crashed, and checkpoint.Open called on the path. The file is
// advisory — wall times of a few milliseconds on a shared VM; it shows shapes
// (suffix replay vs whole-log replay, deltas vs full snapshots), and no gate
// reads it.
type recoveryReport struct {
	Note string `json:"note"`
	Reps int    `json:"reps"`
	// SnapshotVsReplay is the same tuple script written into two directories —
	// one checkpointed, one never — each reopened cold: restore plus suffix
	// replay against replay of the whole log.
	SnapshotVsReplay snapshotVsReplay `json:"snapshot_vs_replay"`
	// ReopenSweep is cold-open cost across job length and snapshot cadence.
	ReopenSweep []recoveryRow `json:"reopen_sweep"`
}

type snapshotVsReplay struct {
	Checkpointed recoveryRow `json:"checkpointed"`
	Never        recoveryRow `json:"never_checkpointed"`
	// Speedup is the ratio of the two median reopen-and-finish times.
	Speedup float64 `json:"speedup"`
}

// timing is the median, minimum and maximum over the repetitions, each on
// its own fresh directory.
type timing struct {
	MedianNanos int64 `json:"median_nanos"`
	MinNanos    int64 `json:"min_nanos"`
	MaxNanos    int64 `json:"max_nanos"`
}

func newTiming(samples []int64) timing {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return timing{MedianNanos: samples[len(samples)/2], MinNanos: samples[0], MaxNanos: samples[len(samples)-1]}
}

// recoveryRow is one recovery scenario: what the crashed directory held, and
// how long a cold reopen took — Open alone (manifest load, WAL scan, chain
// restore, suffix replay handed to the engine) and Open through Finish (the
// replayed suffix fully processed and the final epoch committed).
type recoveryRow struct {
	Checkpoints     int    `json:"checkpoints"`
	LogRecords      int    `json:"log_records"`
	SuffixRecords   int    `json:"suffix_records"`
	WALBytes        int64  `json:"wal_bytes"`
	SnapBytes       int64  `json:"snap_bytes"`
	Reopen          timing `json:"reopen"`
	ReopenAndFinish timing `json:"reopen_and_finish"`
}

const (
	recoveryReps         = 5
	recoveryTicksPerCkpt = 50 // two streams each tick
	recoveryTailTicks    = 25 // ingested after the last checkpoint, lost by the crash
)

func recoveryQuery(pred expr.Predicate, win event.Time, field int) *core.Query {
	return &core.Query{Kind: core.KindAggregation, Arity: 1, Predicates: []expr.Predicate{pred},
		Window: window.TumblingSpec(win), Agg: sqlstream.AggSum, AggField: field}
}

// benchRecovery measures both halves of BENCH_recovery.json.
func benchRecovery() (recoveryReport, error) {
	agg := recoveryQuery(expr.True().And(expr.Comparison{Field: 0, Op: expr.GT, Value: 20}), 10, 1)
	join := &core.Query{Kind: core.KindJoin, Arity: 2,
		Predicates: []expr.Predicate{expr.True(), expr.True()},
		Window:     window.TumblingSpec(8), AggField: -1}
	// A window longer than the run pins its slices live, so retained
	// aggregate state — and with it full-snapshot size — grows with the job
	// while deltas stay proportional to the slices dirtied per barrier. This
	// is the axis the reopen sweep exists to show.
	long := recoveryQuery(expr.True(), 1<<20, 2)

	rep := recoveryReport{
		Note: "advisory: wall times on a shared VM, median/min/max of fresh directories; shapes, not gates",
		Reps: recoveryReps,
	}
	const phases = 20
	ckpt, ckptOut, err := recoveryScenario(phases, true, agg, join)
	if err != nil {
		return rep, err
	}
	never, neverOut, err := recoveryScenario(phases, false, agg, join)
	if err != nil {
		return rep, err
	}
	// The two directories cut their epochs differently, so their outputs are
	// compared as multisets.
	if err := sameOutput(sortedCopy(ckptOut), sortedCopy(neverOut)); err != nil {
		return rep, fmt.Errorf("snapshot restore vs full-log replay: %w", err)
	}
	rep.SnapshotVsReplay = snapshotVsReplay{
		Checkpointed: ckpt, Never: never,
		Speedup: float64(never.ReopenAndFinish.MedianNanos) / float64(ckpt.ReopenAndFinish.MedianNanos),
	}
	for _, ckpts := range []int{5, 20} {
		row, _, err := recoveryScenario(ckpts, true, agg, long, join)
		if err != nil {
			return rep, err
		}
		rep.ReopenSweep = append(rep.ReopenSweep, row)
	}
	return rep, nil
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

func sameOutput(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("recovery outputs diverge: %d vs %d results", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("recovery outputs diverge at result %d: %q vs %q", i, got[i], want[i])
		}
	}
	return nil
}

// recoveryScenario repeats recoveryRun on recoveryReps fresh directories and
// reports the median reopen times with their spread. Every repetition must
// commit the same output or the measurement is meaningless.
func recoveryScenario(phases int, cut bool, queries ...*core.Query) (recoveryRow, []string, error) {
	var row recoveryRow
	var out []string
	var reopen, finish []int64
	for rep := 0; rep < recoveryReps; rep++ {
		r, o, err := recoveryRun(phases, cut, queries)
		if err != nil {
			return row, nil, err
		}
		if rep == 0 {
			row, out = r, o
		} else if err := sameOutput(o, out); err != nil {
			return row, nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		reopen, finish = append(reopen, r.Reopen.MedianNanos), append(finish, r.ReopenAndFinish.MedianNanos)
	}
	row.Reopen, row.ReopenAndFinish = newTiming(reopen), newTiming(finish)
	return row, out, nil
}

// recoveryRun writes one fresh state directory — the queries, `phases` phases
// of ticks with a checkpoint after each when cut is set, a short
// uncheckpointed tail — crashes the incarnation, and reopens the directory
// cold, once: finishing publishes the final epoch, so a directory is good for
// one measurement. It returns what the directory held, with the one sample of
// each wall time, and the committed output.
func recoveryRun(phases int, cut bool, queries []*core.Query) (row recoveryRow, out []string, err error) {
	dir, err := os.MkdirTemp("", "astream-bench-recovery-*")
	if err != nil {
		return row, nil, err
	}
	defer os.RemoveAll(dir)
	cfg := core.Config{
		Streams: 2, Parallelism: 2, Nodes: 2, WatermarkEvery: 1,
		NowNanos: func() int64 { return 1 },
	}
	r, err := checkpoint.Open(cfg, dir, durable.Options{})
	if err != nil {
		return row, nil, err
	}
	script := func() error {
		for _, q := range queries {
			if err := r.Submit(q); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(7))
		now := event.Time(0)
		for tick := 0; tick < phases*recoveryTicksPerCkpt+recoveryTailTicks; tick++ {
			if cut && tick > 0 && tick%recoveryTicksPerCkpt == 0 {
				if _, err := r.Checkpoint(); err != nil {
					return err
				}
			}
			now++
			for st := 0; st < cfg.Streams; st++ {
				tu := event.Tuple{Key: int64(rng.Intn(3)), Time: now}
				for f := range tu.Fields {
					tu.Fields[f] = int64(rng.Intn(100))
				}
				if err := r.Ingest(st, tu); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err = script()
	row = recoveryRow{LogRecords: r.Store().WAL().Len()}
	if offs := r.Store().Offsets(); len(offs) > 0 {
		row.Checkpoints = len(offs)
		row.SuffixRecords = row.LogRecords - offs[len(offs)-1]
	} else {
		row.SuffixRecords = row.LogRecords
	}
	r.Crash()
	if err != nil {
		return row, nil, err
	}
	if row.WALBytes, err = dirBytes(filepath.Join(dir, "wal")); err != nil {
		return row, nil, err
	}
	if row.SnapBytes, err = dirBytes(filepath.Join(dir, "snap")); err != nil {
		return row, nil, err
	}

	start := time.Now()
	rec, err := checkpoint.Open(cfg, dir, durable.Options{})
	if err != nil {
		return row, nil, err
	}
	row.Reopen = newTiming([]int64{time.Since(start).Nanoseconds()})
	out, err = rec.Finish()
	row.ReopenAndFinish = newTiming([]int64{time.Since(start).Nanoseconds()})
	return row, out, err
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

func writeFileJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "bad count %q\n", f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}
