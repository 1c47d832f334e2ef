package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// layerUnits names every per-layer metric the traced run reports, with its
// unit. BENCHMARK.json lists the same names; TestSmoke holds the two together.
var layerUnits = map[string]string{
	"selection.ns_per_tuple":        "ns",
	"selection.selected_share":      "share",
	"selection.changelog_us":        "us",
	"selection.index_nodes":         "count",
	"selection.index_lattice":       "count",
	"selection.index_fallback":      "count",
	"bitset.qs_words_mean":          "count",
	"agg.fold_ns_per_tuple":         "ns",
	"agg.fire_ns_per_result":        "ns",
	"agg.fire_ms_p99":               "ms",
	"agg.results_per_ktuple":        "count",
	"agg.live_slices":               "count",
	"agg.changelog_us":              "us",
	"join.ontuple_ns_per_tuple":     "ns",
	"join.fire_ns_per_result":       "ns",
	"join.pairs_reused_share":       "share",
	"join.results_per_tuple":        "count",
	"router.deliver_ns_per_result":  "ns",
	"spe.exchange_ns_per_tuple":     "ns",
	"spe.partition_skew":            "ratio",
	"spe.codec_encode_ns_per_tuple": "ns",
	"spe.codec_decode_ns_per_tuple": "ns",
	"spe.codec_bytes_per_tuple":     "B",
	"session.submit_us":             "us",
	"session.deploy_delay_p95_ms":   "ms",
	"session.first_result_p75_ms":   "ms",
	"changelog.apply_us":            "us",
	"checkpoint.barrier_ms":         "ms",
	"checkpoint.snapshot_kb":        "KiB",
	"engine.ingest_ns_per_tuple":    "ns",
	"engine.drain_ms":               "ms",
	"engine.cpu_ns_per_tuple":       "ns",
	"runtime.alloc_b_per_tuple":     "B",
	"runtime.gc_cpu_share":          "share",
	"runtime.gc_cycles":             "count",
	"gen.self_ns_per_tuple":         "ns",
	"gen.late_p99_ms":               "ms",
	"result_delay_p99_ms":           "ms",
	"trace.overhead_share":          "share",
	"trace.unattributed_share":      "share",
}

// environment is the header every report carries: numbers without it are not
// comparable.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"child_gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Density    int     `json:"density"`
	Rounds     int     `json:"rounds"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the acceptance checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func (inv *invocation) environment() environment {
	return environment{
		Commit: gitCommit(), GoVersion: runtime.Version(), GOMAXPROCS: 2, NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Seed: inv.seed, Seconds: inv.seconds, Density: inv.density, Rounds: inv.rounds,
	}
}

func printEnvironment(w io.Writer, env environment, ws []*workload, seconds float64, density int) {
	b, _ := json.Marshal(env)
	fmt.Fprintf(w, "environment %s\n", b)
	for _, wl := range ws {
		sz := wl.size(seconds, density)
		fmt.Fprintf(w, "sizes %-18s streams=%d P=%d nodes=%d keys=%d tuples/ms=%d warmup=%d closed=%d open=%d@%.0f/s verify=%d tuples/stream, control event every %d\n",
			wl.name, wl.streams, wl.parallelism, wl.nodes, sz.keys, sz.tuplesPerMs, sz.warmupTuples,
			sz.closedTuples, sz.openTuples, 1e9/sz.openPeriodNs, sz.verifyTuples, sz.eventTuples)
	}
}

// printEndToEnd prints each end-to-end metric: the value reported (the best
// round of a timed metric, the median round of a memory reading), and beside
// it the median, the quartiles and the per-round values.
func printEndToEnd(w io.Writer, o *outcome) {
	for _, s := range o.endToEnd {
		q1, q3 := quartiles(s.values)
		vals := make([]string, len(s.values))
		for i, v := range s.values {
			vals[i] = fmt.Sprintf("%.4g", v)
		}
		pick := "median"
		if s.def.timed {
			pick = "best"
		}
		fmt.Fprintf(w, "%-18s %-22s %14.6g %-5s  %-6s of rounds [%s]  median %.6g  q1 %.6g  q3 %.6g\n",
			o.workload.name, s.def.name, s.reported(), s.def.unit, pick, strings.Join(vals, " "), median(s.values), q1, q3)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-18s %-22s %14.6g %-5s  failed %d of %d attempted\n", o.workload.name, "failed_share", share, "share", o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(w, "%-18s FAILURE %s\n", o.workload.name, f)
	}
}

func printPerLayer(w io.Writer, o *outcome) {
	names := make([]string, 0, len(o.perLayer))
	for k := range o.perLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-18s %-30s %14.6g %s\n", o.workload.name, k, o.perLayer[k], layerUnits[k])
	}
	fmt.Fprintf(w, "%-18s failed %d of %d attempted\n", o.workload.name, o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintf(w, "%-18s FAILURE %s\n", o.workload.name, f)
	}
}

// result is the line the acceptance driver reads: the last line of standard
// output, one JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) result() result {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	for _, s := range o.endToEnd {
		r.Metrics[s.def.name] = metric{Value: s.reported(), Unit: s.def.unit}
	}
	for k, v := range o.perLayer {
		r.Metrics[k] = metric{Value: v, Unit: layerUnits[k]}
	}
	return r
}
