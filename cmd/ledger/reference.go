package main

import (
	"sync/atomic"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// checksum is an order-independent digest of one query's result rows: how
// many there were and the wrapping sum of their row hashes.
type checksum struct {
	Count uint64
	Sum   uint64
}

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rowHash digests one result row: query, window, key, value.
func rowHash(query int, win window.Extent, key, value int64) uint64 {
	h := mix64(uint64(query))
	h = mix64(h ^ uint64(win.Start))
	h = mix64(h ^ uint64(win.End))
	h = mix64(h ^ uint64(key))
	return mix64(h ^ uint64(value))
}

// pairValue folds a join pair's payloads into the row's value.
func pairValue(left, right *[event.NumFields]int64) int64 {
	var h uint64
	for _, f := range left {
		h = mix64(h ^ uint64(f))
	}
	for _, f := range right {
		h = mix64(h ^ uint64(f))
	}
	return int64(h)
}

// resultRow reduces an engine result to the (window, key, value) the
// reference also produces.
func resultRow(r *core.Result) (win window.Extent, key, value int64) {
	if r.Kind == core.KindJoin {
		return r.Window, r.Join.Key, pairValue(&r.Join.Left, &r.Join.Right)
	}
	return r.Window, r.Key, r.Value
}

// checkSink digests one query's engine results; safe for the two operator
// goroutines of a P=2 run.
type checkSink struct {
	query int
	rows  atomic.Uint64
	sum   atomic.Uint64
}

func (s *checkSink) OnResult(r core.Result) {
	win, key, value := resultRow(&r)
	s.rows.Add(1)
	s.sum.Add(rowHash(s.query, win, key, value))
}

func (s *checkSink) checksum() checksum {
	return checksum{Count: s.rows.Load(), Sum: s.sum.Load()}
}

func (s *checkSink) count() uint64 { return s.rows.Load() }

// refQuery is a query as the reference sees it: its definition and the
// event-time interval [since, until) in which tuples count for it.
type refQuery struct {
	index int // the query's number in submission order; part of every row hash
	q     *core.Query
	since event.Time
	until event.Time
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// windowsOf calls fn for every window of spec that contains event-time t:
// window k is [k*slide, k*slide+length).
func windowsOf(spec window.Spec, t event.Time, fn func(window.Extent)) {
	length, slide := int64(spec.Length), int64(spec.Slide)
	if spec.Kind == window.Tumbling {
		slide = length
	}
	for k := floorDiv(int64(t)-length, slide) + 1; k*slide <= int64(t); k++ {
		fn(window.Extent{Start: event.Time(k * slide), End: event.Time(k*slide + length)})
	}
}

// refAcc is the brute-force aggregate of one (query, window, key).
type refAcc struct {
	count, sum, min, max int64
}

// referenceAgg folds every tuple into every window of every query that
// selects it — query at a time, no sharing, no slicing — and digests the rows
// a drained engine must have produced: one per (query, window, key) with data,
// for windows ending in (since, until].
func referenceAgg(queries []refQuery, tuples []event.Tuple, keys int64) []checksum {
	out := make([]checksum, len(queries))
	for qi, rq := range queries {
		q := rq.q
		byWindow := map[window.Extent][]refAcc{}
		for i := range tuples {
			t := &tuples[i]
			if t.Time < rq.since || t.Time >= rq.until || !q.Predicates[0].Eval(t) {
				continue
			}
			v := int64(1)
			if q.AggField >= 0 {
				v = t.Fields[q.AggField]
			}
			windowsOf(q.Window, t.Time, func(win window.Extent) {
				if win.End <= rq.since || win.End > rq.until {
					return
				}
				accs := byWindow[win]
				if accs == nil {
					accs = make([]refAcc, keys)
					byWindow[win] = accs
				}
				a := &accs[t.Key]
				if a.count == 0 || v < a.min {
					a.min = v
				}
				if a.count == 0 || v > a.max {
					a.max = v
				}
				a.count++
				a.sum += v
			})
		}
		for win, accs := range byWindow {
			for key := range accs {
				a := &accs[key]
				if a.count == 0 {
					continue
				}
				var value int64
				switch q.Agg {
				case sqlstream.AggCount:
					value = a.count
				case sqlstream.AggSum:
					value = a.sum
				case sqlstream.AggAvg:
					value = a.sum / a.count
				case sqlstream.AggMin:
					value = a.min
				case sqlstream.AggMax:
					value = a.max
				}
				out[qi].Count++
				out[qi].Sum += rowHash(rq.index, win, int64(key), value)
			}
		}
	}
	return out
}

// referenceJoin is the nested-loop reference of binary windowed equi-joins:
// every pair of equal-key tuples that both sides' predicates accept yields
// one row per window containing both.
func referenceJoin(queries []refQuery, left, right []event.Tuple, keys int64) []checksum {
	byKey := make([][]*event.Tuple, keys)
	for i := range right {
		byKey[right[i].Key] = append(byKey[right[i].Key], &right[i])
	}
	out := make([]checksum, len(queries))
	for qi, rq := range queries {
		q := rq.q
		for i := range left {
			a := &left[i]
			if a.Time < rq.since || a.Time >= rq.until || !q.Predicates[0].Eval(a) {
				continue
			}
			for _, b := range byKey[a.Key] {
				if b.Time < rq.since || b.Time >= rq.until || !q.Predicates[1].Eval(b) {
					continue
				}
				windowsOf(q.Window, a.Time, func(win window.Extent) {
					if !win.Contains(b.Time) || win.End <= rq.since || win.End > rq.until {
						return
					}
					out[qi].Count++
					out[qi].Sum += rowHash(rq.index, win, a.Key, pairValue(&a.Fields, &b.Fields))
				})
			}
		}
	}
	return out
}
