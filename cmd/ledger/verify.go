package main

import (
	"fmt"
	"sort"
	"sync"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/window"
)

// row is one result row kept for the row-for-row comparison.
type row struct {
	query      int
	win        window.Extent
	key, value int64
}

func (a row) less(b row) bool {
	switch {
	case a.query != b.query:
		return a.query < b.query
	case a.win.End != b.win.End:
		return a.win.End < b.win.End
	case a.win.Start != b.win.Start:
		return a.win.Start < b.win.Start
	case a.key != b.key:
		return a.key < b.key
	}
	return a.value < b.value
}

// rowLog collects rows from every sink of one pass.
type rowLog struct {
	mu   sync.Mutex
	rows []row
}

// rowSink is a checkSink that also keeps its rows.
type rowSink struct {
	checkSink
	log *rowLog
}

func (s *rowSink) OnResult(r core.Result) {
	s.checkSink.OnResult(r)
	win, key, value := resultRow(&r)
	s.log.mu.Lock()
	s.log.rows = append(s.log.rows, row{s.query, win, key, value})
	s.log.mu.Unlock()
}

// verifyPass is one engine run over the verification prefix.
type verifyPass struct {
	sums []checksum
	life []refQuery
	rows []row
}

// runPass replays the prefix through an engine at the given parallelism with
// digesting sinks, control events included, and drains it.
func runPass(w *workload, spec childSpec, parallelism, nodes int, keepRows bool, rep *childReport) (*verifyPass, error) {
	cfg := w.engineConfig()
	cfg.Parallelism, cfg.Nodes = parallelism, nodes
	sz := w.size(spec.Seconds, spec.Density)
	h, err := newHarness(w, sz, spec.Seed, cfg)
	if err != nil {
		return nil, err
	}
	log := &rowLog{}
	var sinks []*checkSink
	h.newSink = func(i int, _ *core.Query) resultSink {
		if keepRows {
			s := &rowSink{checkSink: checkSink{query: i}, log: log}
			sinks = append(sinks, &s.checkSink)
			return s
		}
		s := &checkSink{query: i}
		sinks = append(sinks, s)
		return s
	}
	h.deploy()
	h.feed.feed(sz.verifyTuples)
	h.finish()
	rep.addOps(h)

	p := &verifyPass{life: h.life, rows: log.rows}
	for _, s := range sinks {
		p.sums = append(p.sums, s.checksum())
	}
	sort.Slice(p.rows, func(i, j int) bool { return p.rows[i].less(p.rows[j]) })
	return p, nil
}

// prefixTuples regenerates the verification prefix exactly as the engine
// passes saw it, one slice per stream.
func prefixTuples(w *workload, sz sizing, seed int64) [][]event.Tuple {
	out := make([][]event.Tuple, w.streams)
	f := &feeder{
		ingest: func(s int, t event.Tuple) error {
			out[s] = append(out[s], t)
			return nil
		},
		blocks:      w.dataBlocks(seed),
		keys:        sz.keys,
		tuplesPerMs: sz.tuplesPerMs,
		stamp:       1,
	}
	f.feed(sz.verifyTuples)
	return out
}

// mismatch counts one disagreement between two digests as failed rows: the
// difference in row count, and at least one.
func mismatch(a, b checksum) int {
	if a == b {
		return 0
	}
	d := int(a.Count) - int(b.Count)
	if d < 0 {
		d = -d
	}
	if d == 0 {
		d = 1
	}
	return d
}

// runVerify checks the workload's outputs over a fixed prefix: the engine's
// per-query digests against the brute-force reference (for every query that
// is never deleted), shared64_exchange row for row against the fused engine,
// and churn512 at P=1 against P=2.
func runVerify(w *workload, spec childSpec) (*childReport, error) {
	rep := &childReport{Workload: w.name, Mode: spec.Mode}
	sz := w.size(spec.Seconds, spec.Density)
	rowsWanted := w.name == "shared64_exchange"
	main, err := runPass(w, spec, w.parallelism, w.nodes, rowsWanted, rep)
	if err != nil {
		return nil, err
	}

	// Reference: every query that lives to the end of the prefix.
	var kept []refQuery
	var keptIdx []int
	for i, rq := range main.life {
		if rq.until == event.MaxTime {
			kept = append(kept, rq)
			keptIdx = append(keptIdx, i)
		}
	}
	tuples := prefixTuples(w, sz, spec.Seed)
	var ref []checksum
	if w.streams == 2 {
		ref = referenceJoin(kept, tuples[0], tuples[1], sz.keys)
	} else {
		ref = referenceAgg(kept, tuples[0], sz.keys)
	}
	if spec.CorruptReference && len(ref) > 0 {
		ref[0].Sum++
	}
	for k, i := range keptIdx {
		rep.Attempted += int(ref[k].Count)
		if d := mismatch(main.sums[i], ref[k]); d > 0 {
			rep.Failed += d
			rep.Failures = append(rep.Failures, fmt.Sprintf("query %d: engine %d rows (digest %x), reference %d rows (digest %x)",
				i, main.sums[i].Count, main.sums[i].Sum, ref[k].Count, ref[k].Sum))
		}
		rep.Results += main.sums[i].Count
	}

	switch {
	case rowsWanted:
		fused, err := runPass(w, spec, 1, 1, true, rep)
		if err != nil {
			return nil, err
		}
		rep.Attempted += len(fused.rows)
		if len(fused.rows) != len(main.rows) {
			rep.Failed += max(len(main.rows), len(fused.rows)) - min(len(main.rows), len(fused.rows))
			rep.Failures = append(rep.Failures, fmt.Sprintf("exchange produced %d rows, fused %d", len(main.rows), len(fused.rows)))
			break
		}
		for i := range fused.rows {
			if fused.rows[i] != main.rows[i] {
				rep.Failed++
				if len(rep.Failures) < 10 {
					rep.Failures = append(rep.Failures, fmt.Sprintf("row %d: exchange %+v, fused %+v", i, main.rows[i], fused.rows[i]))
				}
			}
		}
	case w.churn:
		other, err := runPass(w, spec, 2, 2, false, rep)
		if err != nil {
			return nil, err
		}
		for i := range main.sums {
			rep.Attempted += int(main.sums[i].Count)
			if d := mismatch(main.sums[i], other.sums[i]); d > 0 {
				rep.Failed += d
				rep.Failures = append(rep.Failures, fmt.Sprintf("query %d: P=1 %+v, P=2 %+v", i, main.sums[i], other.sums[i]))
			}
		}
	}
	if len(rep.Failures) > 10 {
		rep.Failures = rep.Failures[:10]
	}
	rep.Tuples = sz.verifyTuples
	return rep, nil
}
