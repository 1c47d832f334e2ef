package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"astream/internal/core"
	"astream/internal/event"
)

// requestLog is a queryTarget that records the control script instead of
// running it: which request, for which query, after how many tuples.
type requestLog struct {
	fed  *int
	next int
	log  []string
}

func (r *requestLog) Submit(q *core.Query, _ core.Sink) (int, <-chan struct{}, error) {
	r.next++
	r.log = append(r.log, fmt.Sprintf("@%d submit %d %v %v %v %v/%d", *r.fed, r.next, q.Kind, q.Predicates, q.Window, q.Agg, q.AggField))
	return r.next, nil, nil
}

func (r *requestLog) StopQuery(id int) (<-chan struct{}, error) {
	r.log = append(r.log, fmt.Sprintf("@%d stop %d", *r.fed, id))
	return nil, nil
}

// script replays a workload's generator and control script against a
// recording target and returns the tuples and the requests.
func script(w *workload, seed int64) ([]event.Tuple, []string) {
	sz := w.size(2, 100)
	var tuples []event.Tuple
	rl := &requestLog{}
	h := newHarnessOn(w, sz, seed, rl, func(_ int, t event.Tuple) error {
		tuples = append(tuples, t)
		return nil
	})
	rl.fed = &h.feed.idx
	h.deploy()
	h.probing = true
	h.feed.feed(sz.warmupTuples + sz.closedTuples)
	return tuples, rl.log
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if !reflect.DeepEqual(w.dataBlocks(7), w.dataBlocks(7)) {
			t.Errorf("%s: tuple block differs between two generations with one seed", w.name)
		}
		if reflect.DeepEqual(w.dataBlocks(7), w.dataBlocks(8)) {
			t.Errorf("%s: tuple block ignores the seed", w.name)
		}
		if !reflect.DeepEqual(w.population(), w.population()) {
			t.Errorf("%s: query population is not deterministic", w.name)
		}
		if n := len(w.population()); n%w.batchSize != 0 {
			t.Errorf("%s: population of %d does not fill whole session batches of %d", w.name, n, w.batchSize)
		}
		tuplesA, requestsA := script(w, 7)
		tuplesB, requestsB := script(w, 7)
		if !reflect.DeepEqual(tuplesA, tuplesB) {
			t.Errorf("%s: generated tuples differ between two runs with one seed", w.name)
		}
		if !reflect.DeepEqual(requestsA, requestsB) {
			t.Errorf("%s: control schedule differs between two runs with one seed", w.name)
		}
		if len(requestsA) <= len(w.population()) {
			t.Errorf("%s: control script issued no request after deployment", w.name)
		}
	}
}

func TestChurnScheduleKeepsPopulation(t *testing.T) {
	w, err := workloadByName("churn512")
	if err != nil {
		t.Fatal(err)
	}
	_, requests := script(w, 1)
	live := 0
	for _, r := range requests {
		switch {
		case strings.Contains(r, " submit "):
			live++
		case strings.Contains(r, " stop "):
			live--
		}
		if live > 512+churnBatch {
			t.Fatalf("live queries grew to %d at %q", live, r)
		}
	}
	if live != 512 {
		t.Errorf("live queries after the script = %d, want 512", live)
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {10, 10}, {11, 20}, {100, 100}, {0.1, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedianOfRoundsAndQuartiles(t *testing.T) {
	// What an invocation reports from five rounds: the best round of a timed
	// metric, in its own direction, and the median round of a memory reading.
	rounds := []float64{5, 1, 4, 2, 3}
	for i, want := range []float64{5, 1, 3, 3, 1} {
		if got := endToEndDefs[i].reported(rounds); got != want {
			t.Errorf("%s reports %v of %v, want %v", endToEndDefs[i].name, got, rounds, want)
		}
	}
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of five = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of 3,1,4,1,5 = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "stage", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "fold", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "fire", StartNs: 30, EndNs: 70},
		{ID: 3, Parent: 2, Name: "deliver", StartNs: 40, EndNs: 50},
		// A child from another goroutine that overlaps "fire" and runs past
		// its parent's end: only the uncovered, clipped part counts.
		{ID: 4, Parent: 0, Name: "sink", StartNs: 60, EndNs: 120},
	}
	want := []int64{100 - 20 - 40 - 30, 20, 40 - 10, 10, 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := totalsByName(spans)
	if tot["fire"].total != 40 || tot["fire"].self != 30 || tot["stage"].count != 1 {
		t.Errorf("totals: fire %+v stage %+v", tot["fire"], tot["stage"])
	}
	var tr *tracer
	tr.end(tr.begin("untraced", -1, 0)) // a nil tracer records nothing and must not panic
}

// verifyDensity scales each workload's verification prefix to about 10,000
// tuples per stream.
var verifyDensity = map[string]int{"shared64_fused": 24, "shared64_exchange": 24, "churn512": 24, "join16": 6}

func TestReferenceAgreesWithEngine(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		spec := childSpec{Workload: w.name, Mode: "verify", Seed: 3, Seconds: defaultSeconds, Density: verifyDensity[w.name]}
		rep, err := runVerify(w, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Results == 0 {
			t.Errorf("%s: %d of %d checks failed, %d rows compared: %v", w.name, rep.Failed, rep.Attempted, rep.Results, rep.Failures)
		}
		if i > 0 {
			continue
		}
		spec.CorruptReference = true
		rep, err = runVerify(w, spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed == 0 {
			t.Errorf("%s: a corrupted reference went unnoticed", w.name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLine parses the result object a run printed last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	return r
}

// TestSmoke runs every workload in-process at 1/40 density and 1/4 of the span (1/160 of the tuples), one round, both
// as the end-to-end run and as the traced run, and holds the output against
// BENCHMARK.json: every workload, every end-to-end metric and every per-layer
// metric named there is emitted exactly once, with the unit named there.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the sizes are frozen for %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the ledger has %d", len(f.Workloads), len(workloads))
	}
	if len(f.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the ledger has %d", len(f.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		e := f.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the ledger defines %+v", i, e, d)
		}
	}
	if len(f.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the ledger has %d", len(f.PerLayer), len(layerUnits))
	}

	for i, fw := range f.Workloads {
		w := &workloads[i]
		if fw.Name != w.name || !nameRE.MatchString(fw.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the ledger", i, fw.Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			inv := &invocation{run: runInProcess, seed: 1, seconds: defaultSeconds / 4, density: 40, rounds: 1, log: &out}
			if code := inv.main([]*workload{w}, traced, ""); code != 0 {
				t.Errorf("%s traced=%v: exit code %d\n%s", w.name, traced, code, out.String())
			}
			r := lastLine(t, out.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, r.Correct, r.Failed, r.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				switch {
				case !nameRE.MatchString(name):
					t.Errorf("metric name %q has characters outside letters, digits, _ . -", name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s is missing", w.name, traced, name)
				case m.Unit != unit || unit == "":
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, name, m.Value)
				}
			}
			for name := range r.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				}
			}
			if !traced {
				for _, name := range []string{"throughput_tup_s", "result_delay_p50_ms", "live_heap_mb", "peak_rss_mb", "setup_s"} {
					if r.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, must be positive", w.name, name, r.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptReferenceFailsTheCommand: a wrong reference is a wrong output, so
// the command must report failures and exit non-zero.
func TestCorruptReferenceFailsTheCommand(t *testing.T) {
	w, err := workloadByName("shared64_fused")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	inv := &invocation{run: runInProcess, seed: 1, seconds: defaultSeconds / 4, density: 40, rounds: 1, corrupt: true, log: &out}
	if code := inv.main([]*workload{w}, false, ""); code == 0 {
		t.Errorf("exit code 0 with a corrupted reference\n%s", out.String())
	}
	if r := lastLine(t, out.String()); r.Correct || r.Failed == 0 {
		t.Errorf("result reports correct=%v failed=%d with a corrupted reference", r.Correct, r.Failed)
	}
}

// TestTraceFileRoundTrip: the span file holds every span with the fields the
// issue names, a child span carries its parent's chunk number, and every layer
// on the workload's path has at least one span.
func TestTraceFileRoundTrip(t *testing.T) {
	common := []string{"engine.ingest", "checkpoint", "engine.drain",
		"stage.selection", "selection.changelog", "stage.agg", "changelog.apply", "stage.router", "gen.self"}
	for name, own := range map[string][]string{
		"join16":   {"sink.callback", "stage.join", "join.ontuple", "join.fire", "stage.exchange"},
		"churn512": {"session.batch", "agg.ontuple", "agg.fire", "agg.changelog"},
	} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/spans.json"
		inv := &invocation{run: runInProcess, seed: 1, seconds: defaultSeconds / 10, density: 10, rounds: 1, log: io.Discard}
		if code := inv.main([]*workload{w}, true, path); code != 0 {
			t.Fatalf("%s: exit code %d", name, code)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i, s := range spans {
			if s.ID != i || s.Parent >= len(spans) || s.EndNs < s.StartNs || s.Workload != w.name {
				t.Fatalf("%s: span %d is malformed: %+v", name, i, s)
			}
			if s.Parent >= 0 && s.Chunk != spans[s.Parent].Chunk {
				t.Fatalf("%s: span %d (%s) is in chunk %d, its parent %d (%s) in chunk %d",
					name, i, s.Name, s.Chunk, s.Parent, spans[s.Parent].Name, spans[s.Parent].Chunk)
			}
			seen[s.Name] = true
		}
		for _, span := range append(common, own...) {
			if !seen[span] {
				t.Errorf("%s: no %q span in the trace file", name, span)
			}
		}
	}
}
