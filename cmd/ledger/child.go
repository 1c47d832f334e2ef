package main

import (
	"runtime"
	"slices"

	"astream/internal/event"
)

// childSpec is what the parent asks one child process to do.
type childSpec struct {
	Workload string  `json:"workload"`
	Mode     string  `json:"mode"` // closed | open | verify | boundary | boundary-traced | stages
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Density  int     `json:"density"` // 1 in every run of the command; tests shrink the input with it
	// SpawnUnixNs is the parent's wall clock just before it started the
	// child: setup_s is counted from here, so it includes process start and
	// runtime initialisation.
	SpawnUnixNs int64 `json:"spawn_unix_ns"`
	// CorruptReference makes the verify child damage its reference on
	// purpose; the test of the failure path uses it.
	CorruptReference bool `json:"corrupt_reference,omitempty"`
}

// childReport is one child's result, printed as one JSON line.
type childReport struct {
	Workload string `json:"workload"`
	Mode     string `json:"mode"`

	SetupS float64 `json:"setup_s"`
	Tuples int     `json:"tuples"` // measured tuples per stream

	// Closed phase.
	ElapsedS      float64 `json:"elapsed_s,omitempty"`
	ThroughputTps float64 `json:"throughput_tup_s,omitempty"`
	LiveHeapMB    float64 `json:"live_heap_mb,omitempty"`

	// Open phase.
	DelayP50Ms   float64 `json:"result_delay_p50_ms,omitempty"`
	DelayP99Ms   float64 `json:"result_delay_p99_ms,omitempty"`
	DelaySamples int     `json:"delay_samples,omitempty"`
	DeployP75Ms  float64 `json:"deploy_delay_p75_ms,omitempty"`
	Probes       int     `json:"probes,omitempty"`
	LateP99Ms    float64 `json:"gen_late_p99_ms,omitempty"`
	LateTuples   int     `json:"late_tuples,omitempty"`
	// SubmitUs is the mean wall time of one control event's Submit/StopQuery
	// batch; SessionP95Ms the engine's own request-to-release latency.
	SubmitUs     float64 `json:"session_submit_us,omitempty"`
	SessionP95Ms float64 `json:"session_deploy_delay_p95_ms,omitempty"`

	// Result counts: deterministic, must repeat exactly between rounds.
	Results      uint64 `json:"results"`
	ProbeResults uint64 `json:"probe_results"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Traced run only. Quiesced is the number of results delivered for the
	// warm-up and the measured tuples before Drain: the boundary pass and the
	// stage replay must agree on it, or the layer rows describe another
	// computation than the engine's.
	Quiesced uint64             `json:"quiesced_results,omitempty"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	SpanList []span             `json:"span_list,omitempty"`
}

const nsPerMB = 1 << 20

// addOps folds one harness run's operations into the report: every tuple
// offered and every query request is an attempted operation.
func (r *childReport) addOps(h *harness) {
	r.Attempted += h.feed.idx*h.w.streams + h.attempted
	r.Failed += h.failed
	r.Failures = append(r.Failures, h.failures...)
}

func (r *childReport) take(h *harness, tuples int) {
	r.Tuples = tuples
	r.Results = h.results()
	r.ProbeResults = h.probeResults()
	r.addOps(h)
}

// setupHarness does everything that precedes the first measured tuple: input
// generation, engine build, initial deployment and one warm-up hyperperiod
// replayed closed-loop, which fills every window and warms every pool.
func setupHarness(w *workload, spec childSpec) (*harness, error) {
	sz := w.size(spec.Seconds, spec.Density)
	h, err := newHarness(w, sz, spec.Seed, w.engineConfig())
	if err != nil {
		return nil, err
	}
	h.deploy()
	h.feed.feed(sz.warmupTuples)
	return h, nil
}

// runClosed measures throughput: a fixed number of tuples offered as fast as
// the engine takes them, timed from the first measured tuple to Drain's
// return. The forced GC that reads the live heap is excluded from the time.
func runClosed(w *workload, spec childSpec) (*childReport, error) {
	h, err := setupHarness(w, spec)
	if err != nil {
		return nil, err
	}
	rep := &childReport{Workload: w.name, Mode: spec.Mode}
	t0 := nowNs()
	rep.SetupS = sinceSpawn(spec)
	h.feed.feed(h.sz.closedTuples)
	t1 := nowNs()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rep.LiveHeapMB = float64(ms.HeapAlloc) / nsPerMB
	t2 := nowNs()
	h.finish()
	t3 := nowNs()
	rep.ElapsedS = float64((t1-t0)+(t3-t2)) / 1e9
	rep.ThroughputTps = float64(h.sz.closedTuples) / rep.ElapsedS
	rep.take(h, h.sz.closedTuples)
	return rep, nil
}

// lateLimitNs is the overload threshold: tuples of an open-loop batch sent
// more than a second behind its schedule are late tuples; the parent counts
// the median round's as failed operations.
const lateLimitNs = 1e9

// maxDelaySamples bounds the delay sample buffer (8 MiB).
const maxDelaySamples = 1 << 20

// runOpen measures delays: tuples offered on a fixed schedule, result delay
// taken from the scheduled time of the tuple that closes the window, and a
// deployment probe swapped at every control event.
func runOpen(w *workload, spec childSpec) (*childReport, error) {
	h, err := setupHarness(w, spec)
	if err != nil {
		return nil, err
	}
	rep := &childReport{Workload: w.name, Mode: spec.Mode}
	sz := h.sz
	c := h.ctl
	c.samples = make([]int64, maxDelaySamples)
	c.startMs = h.feed.ms
	c.endMs = c.startMs + event.Time(sz.openTuples/sz.tuplesPerMs)
	c.nsPerMs = sz.openPeriodNs * float64(sz.tuplesPerMs)
	c.startNs = nowNs() + 1e6 // first batch due in a millisecond
	c.sampling.Store(true)
	h.probing = true
	var batchNs, batches int64
	h.onControl = func(batch func()) {
		t0 := nowNs()
		batch()
		batchNs += nowNs() - t0
		batches++
	}
	deployed := len(h.eng.DeployRecords())
	rep.SetupS = sinceSpawn(spec)

	// The control event after the very last tuple would deploy a probe no
	// tuple ever reaches, so probing stops one event period early.
	h.probeUntil = h.feed.idx + sz.openTuples - sz.eventTuples
	late := h.feed.openLoop(sz.openTuples, c.startNs, sz.openPeriodNs)
	c.sampling.Store(false)
	h.finish()

	n := int(c.sampleIdx.Load())
	if n > len(c.samples) {
		n = len(c.samples)
	}
	delays := c.samples[:n]
	slices.Sort(delays)
	rep.DelaySamples = n
	rep.DelayP50Ms = float64(percentile(delays, 50)) / 1e6
	rep.DelayP99Ms = float64(percentile(delays, 99)) / 1e6
	if d := c.dropped.Load(); d > 0 {
		h.fail("%d delay samples did not fit the buffer", d)
	}

	var deploy []int64
	for _, p := range h.probes {
		h.attempted++
		first := p.firstNs.Load()
		if p.n.Load() == 0 {
			h.fail("probe got no result")
			continue
		}
		deploy = append(deploy, first-p.submitNs)
	}
	slices.Sort(deploy)
	rep.Probes = len(h.probes)
	rep.DeployP75Ms = float64(percentile(deploy, 75)) / 1e6

	if batches > 0 {
		rep.SubmitUs = float64(batchNs) / float64(batches) / 1e3
	}
	var released []int64
	for _, r := range h.eng.DeployRecords()[deployed:] {
		if r.Create {
			released = append(released, int64(r.Latency))
		}
	}
	slices.Sort(released)
	rep.SessionP95Ms = float64(percentile(released, 95)) / 1e6

	slices.Sort(late)
	rep.LateP99Ms = float64(percentile(late, 99)) / 1e6
	for i := len(late) - 1; i >= 0 && late[i] > lateLimitNs; i-- {
		rep.LateTuples += sz.tuplesPerMs * w.streams
	}
	rep.take(h, sz.openTuples)
	return rep, nil
}
