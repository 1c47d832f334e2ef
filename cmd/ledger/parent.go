package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childMemoryLimitMB is the hard cap on a child's resident set: the parent
// polls it and kills the child the moment it is exceeded.
const childMemoryLimitMB = 1024

// childTimeout bounds one child; the slowest (a traced boundary pass) takes a
// few seconds.
const childTimeout = 120 * time.Second

// runner starts one child and returns its report and its peak RSS in MiB.
type runner func(spec childSpec) (*childReport, float64, error)

// processRunner runs each child as a fresh process of this binary with
// GOMAXPROCS=2 and every other runtime setting at its default, watching its
// memory while it runs.
func processRunner(self string) runner {
	return func(spec childSpec) (*childReport, float64, error) {
		spec.SpawnUnixNs = time.Now().UnixNano()
		arg, err := json.Marshal(spec)
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(self, "-child", string(arg))
		cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, 0, err
		}
		var killed string
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			killed = watchChild(cmd.Process, done)
		}()
		err = cmd.Wait()
		close(done)
		wg.Wait()
		if killed != "" {
			return nil, 0, fmt.Errorf("%s child of %s killed: %s", spec.Mode, spec.Workload, killed)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s child of %s: %w", spec.Mode, spec.Workload, err)
		}
		var rep childReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			return nil, 0, fmt.Errorf("%s child of %s: bad report: %w", spec.Mode, spec.Workload, err)
		}
		peakMB := 0.0
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
		return &rep, peakMB, nil
	}
}

// watchChild polls the child's resident set and kills it when it passes the
// memory cap or the time limit; it returns the reason, or "" if the child
// ended by itself.
func watchChild(p *os.Process, done <-chan struct{}) string {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(childTimeout)
	statm := "/proc/" + strconv.Itoa(p.Pid) + "/statm"
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	for {
		select {
		case <-done:
			return ""
		case <-deadline:
			p.Kill()
			return "ran past " + childTimeout.String()
		case <-tick.C:
			b, err := os.ReadFile(statm)
			if err != nil {
				continue // not Linux, or the child just exited
			}
			f := strings.Fields(string(b))
			if len(f) < 2 {
				continue
			}
			pages, _ := strconv.ParseFloat(f[1], 64)
			if mb := pages * pageMB; mb > childMemoryLimitMB {
				p.Kill()
				return fmt.Sprintf("resident set %.0f MiB passed the %d MiB cap", mb, childMemoryLimitMB)
			}
		}
	}
}

// runInProcess is the runner of the tests: it runs the child in this process —
// same code, no isolation, so its timings mean nothing.
func runInProcess(spec childSpec) (*childReport, float64, error) {
	spec.SpawnUnixNs = time.Now().UnixNano()
	rep, err := runChild(spec)
	if err != nil {
		return nil, 0, err
	}
	var ru syscall.Rusage
	peakMB := 0.0
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		peakMB = float64(ru.Maxrss) / 1024
	}
	return rep, peakMB, nil
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// series is one end-to-end metric of one workload: the per-round values, of
// which def picks the one reported.
type series struct {
	def    *endToEndDef
	values []float64
}

func (s *series) reported() float64 { return s.def.reported(s.values) }

// outcome is everything one invocation learned about one workload.
type outcome struct {
	workload  *workload
	endToEnd  []*series
	perLayer  map[string]float64
	spans     []span
	attempted int
	failed    int
	failures  []string
	counts    map[string][]uint64 // result counts per child mode, one per round
	late      []float64           // open-phase tuples sent more than 1 s late, one per round
}

// series returns the named end-to-end metric's series, creating it on first
// use; the name must be one of endToEndDefs.
func (o *outcome) series(name string) *series {
	for _, s := range o.endToEnd {
		if s.def.name == name {
			return s
		}
	}
	for i := range endToEndDefs {
		if endToEndDefs[i].name == name {
			s := &series{def: &endToEndDefs[i]}
			o.endToEnd = append(o.endToEnd, s)
			return s
		}
	}
	panic("ledger: no end-to-end metric named " + name)
}

func (o *outcome) absorb(rep *childReport) {
	o.attempted += rep.Attempted
	o.failed += rep.Failed
	for _, f := range rep.Failures {
		if len(o.failures) < 10 {
			o.failures = append(o.failures, rep.Mode+": "+f)
		}
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.attempted++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// invocation is one run of the ledger.
type invocation struct {
	run     runner
	seed    int64
	seconds float64
	density int
	rounds  int
	corrupt bool // damage the reference on purpose (failure-path test)
	log     io.Writer
}

func (inv *invocation) spec(w *workload, mode string) childSpec {
	return childSpec{Workload: w.name, Mode: mode, Seed: inv.seed, Seconds: inv.seconds, Density: inv.density, CorruptReference: inv.corrupt}
}

// verify runs the output check once for the workload.
func (inv *invocation) verify(o *outcome) error {
	rep, _, err := inv.run(inv.spec(o.workload, "verify"))
	if err != nil {
		return err
	}
	o.absorb(rep)
	fmt.Fprintf(inv.log, "%-18s verify   %d reference rows and operations checked, %d failed\n", o.workload.name, rep.Attempted, rep.Failed)
	return nil
}

// round runs one (closed, open) pair of fresh children for the workload.
func (inv *invocation) round(o *outcome, r int) error {
	w := o.workload
	closed, rssMB, err := inv.run(inv.spec(w, "closed"))
	if err != nil {
		return err
	}
	open, _, err := inv.run(inv.spec(w, "open"))
	if err != nil {
		return err
	}
	o.absorb(closed)
	o.absorb(open)
	add := func(name string, v float64) {
		s := o.series(name)
		s.values = append(s.values, v)
	}
	add("throughput_tup_s", closed.ThroughputTps)
	add("result_delay_p50_ms", open.DelayP50Ms)
	add("live_heap_mb", closed.LiveHeapMB)
	add("peak_rss_mb", rssMB)
	add("setup_s", closed.SetupS)
	o.late = append(o.late, float64(open.LateTuples))
	o.counts["closed"] = append(o.counts["closed"], closed.Results)
	o.counts["open"] = append(o.counts["open"], open.Results)
	o.counts["open probes"] = append(o.counts["open probes"], open.ProbeResults)
	fmt.Fprintf(inv.log, "%-18s round %d  %9.0f tup/s  delay p50 %7.2f p99 %7.2f ms (%d samples)  deploy p75 %6.3f ms (%d probes)  heap %6.1f rss %6.1f MiB  setup %.3f/%.3f s  gen late p99 %.2f ms\n",
		w.name, r+1, closed.ThroughputTps, open.DelayP50Ms, open.DelayP99Ms, open.DelaySamples,
		open.DeployP75Ms, open.Probes, closed.LiveHeapMB, rssMB, closed.SetupS, open.SetupS, open.LateP99Ms)
	return nil
}

// checkOverload counts the open phase's late tuples as failed operations: the
// median over the rounds, because an engine that cannot keep the open rate is
// late in every round and a stall of the machine in one or two.
func (o *outcome) checkOverload(log io.Writer) {
	fmt.Fprintf(log, "%-18s overload tuples sent more than 1 s late, per round: %v\n", o.workload.name, o.late)
	if n := int(median(o.late)); n > 0 {
		o.failed += n
		o.failures = append(o.failures, fmt.Sprintf("open-loop generator ran more than 1 s late (overload): %d tuples in the median round", n))
	}
}

// checkCounts requires the deterministic result counts to repeat exactly
// between rounds.
func (o *outcome) checkCounts(log io.Writer) {
	for _, mode := range []string{"closed", "open", "open probes"} {
		c := o.counts[mode]
		if len(c) == 0 {
			continue
		}
		same := true
		for _, v := range c[1:] {
			same = same && v == c[0]
		}
		fmt.Fprintf(log, "%-18s results  %-11s %d in every round: %v\n", o.workload.name, mode, c[0], same)
		if !same {
			o.fail("%s result counts differ between rounds: %v", mode, c)
		}
	}
}

// measure runs the end-to-end rounds for the given workloads, interleaved:
// each round visits every workload in order, so drift in the machine's state
// lands on all of them alike.
func (inv *invocation) measure(ws []*workload) ([]*outcome, error) {
	outs := make([]*outcome, len(ws))
	for i, w := range ws {
		outs[i] = &outcome{workload: w, counts: map[string][]uint64{}}
		if err := inv.verify(outs[i]); err != nil {
			return nil, err
		}
	}
	for r := 0; r < inv.rounds; r++ {
		for _, o := range outs {
			if err := inv.round(o, r); err != nil {
				return nil, err
			}
		}
	}
	for _, o := range outs {
		o.checkCounts(inv.log)
		o.checkOverload(inv.log)
	}
	return outs, nil
}

// trace runs the traced run for one workload: the boundary pass untraced and
// traced (fresh children), the stage replay, and one open child for the
// generator's lateness and the session's control-path timings. It fills perLayer with every per-layer metric.
func (inv *invocation) trace(w *workload) (*outcome, error) {
	o := &outcome{workload: w, perLayer: map[string]float64{}, counts: map[string][]uint64{}}
	if err := inv.verify(o); err != nil {
		return nil, err
	}
	var elapsed [2]float64
	quiesced := map[string]uint64{}
	for i, mode := range []string{"boundary", "boundary-traced", "stages", "open"} {
		rep, _, err := inv.run(inv.spec(w, mode))
		if err != nil {
			return nil, err
		}
		o.absorb(rep)
		quiesced[mode] = rep.Quiesced
		switch mode {
		case "boundary", "boundary-traced":
			elapsed[i] = rep.ElapsedS
			for k, v := range rep.Layer {
				// Counters come from the clean pass, span-derived values
				// exist only in the traced one.
				if _, have := o.perLayer[k]; !have {
					o.perLayer[k] = v
				}
			}
		case "stages":
			for k, v := range rep.Layer {
				o.perLayer[k] = v
			}
		case "open":
			o.perLayer["gen.late_p99_ms"] = rep.LateP99Ms
			o.perLayer["result_delay_p99_ms"] = rep.DelayP99Ms
			o.perLayer["session.first_result_p75_ms"] = rep.DeployP75Ms
			o.perLayer["session.submit_us"] = rep.SubmitUs
			o.perLayer["session.deploy_delay_p95_ms"] = rep.SessionP95Ms
		}
		base := len(o.spans)
		for _, s := range rep.SpanList {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			o.spans = append(o.spans, s)
		}
		fmt.Fprintf(inv.log, "%-18s %-15s %d spans\n", w.name, mode, len(rep.SpanList))
	}
	// The stage replay re-implements the session and the ingress by hand: its
	// layer rows count only while it computes what the engine computes.
	if e, r := quiesced["boundary"], quiesced["stages"]; e != r || e != quiesced["boundary-traced"] {
		o.fail("stage replay delivered %d results before the drain, the engine %d (traced: %d)", r, e, quiesced["boundary-traced"])
	} else {
		o.attempted++
	}
	fmt.Fprintf(inv.log, "%-18s replay check    %d results before the drain in the engine, %d in the stage replay\n", w.name, quiesced["boundary"], quiesced["stages"])
	if elapsed[0] > 0 {
		o.perLayer["trace.overhead_share"] = elapsed[1]/elapsed[0] - 1
	}
	if cpu := o.perLayer["engine.cpu_ns_per_tuple"]; cpu > 0 {
		o.perLayer["trace.unattributed_share"] = 1 - o.perLayer[stageSumKey]/cpu
	}
	delete(o.perLayer, stageSumKey)
	// A layer that is not on this workload's path reports 0.
	for k := range layerUnits {
		if _, ok := o.perLayer[k]; !ok {
			o.perLayer[k] = 0
		}
	}
	return o, nil
}
