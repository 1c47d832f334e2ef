package core

import (
	"fmt"
	"math/rand"
	"testing"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/window"
)

// BenchmarkAblationChangelogDP contrasts Equation 1's DP table against
// recomputing AND-chains for non-adjacent slice relations.
func BenchmarkAblationChangelogDP(b *testing.B) {
	reg := changelog.NewRegistry(changelog.SlotReuse)
	tb := changelog.NewTable()
	var logs []*changelog.Changelog
	id := 1
	for step := 0; step < 256; step++ {
		var del []int
		if id > 16 {
			del = []int{id - 16}
		}
		cl, err := reg.Apply(event.Time(step), []int{id}, del)
		if err != nil {
			b.Fatal(err)
		}
		logs = append(logs, cl)
		if err := tb.Add(cl); err != nil {
			b.Fatal(err)
		}
		id++
	}
	b.Run("dp-table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := uint64(1); j < 256; j += 17 {
				tb.Rel(256, j)
			}
		}
	})
	b.Run("and-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := uint64(1); j < 256; j += 17 {
				changelog.RelChain(logs, 256, j)
			}
		}
	})
}

// BenchmarkAblationSelectionIndex contrasts the compiled predicate index
// (DESIGN.md §14) against the naive per-query scan it replaced, on the
// shared selection's OnTuple path at the paper's high-query-count regime
// (Fig. 9's query-count axis). Three workloads: "overlap" is the templated
// 512q kernel population (few templates, many subscribers — the index's
// best case), "random" mirrors the §4.2.2 generator (uniform field/op/
// constant with the 0.2-selectivity floor — little dedup, mostly one-sided
// ranges on the stabbing index), "conj" is all two-field conjunctions: even
// slots a key equality ∧ range (the ledger's churn512 shape), odd slots
// range ∧ range from the same generator with two comparisons — dispatched on
// one constraint, verified on the other. The scan arm is forced by
// installing a no-op fault hook, exactly the mechanism fault injection uses
// to demand per-entry evaluation.
func BenchmarkAblationSelectionIndex(b *testing.B) {
	// genPred draws a conjunction of ncmp comparisons like the §4.2.2
	// generator, redrawing until it clears the 0.2-selectivity floor.
	genPred := func(r *rand.Rand, ops []expr.Op, ncmp int) expr.Predicate {
		for {
			p := expr.True()
			for c := 0; c < ncmp; c++ {
				p = p.And(expr.Comparison{
					Field: r.Intn(event.NumFields),
					Op:    ops[r.Intn(len(ops))],
					Value: r.Int63n(1000),
				})
			}
			if p.Selectivity(1000) >= 0.2 {
				return p
			}
		}
	}
	genEntries := func(n int) []selEntry {
		r := rand.New(rand.NewSource(int64(n)))
		ops := []expr.Op{expr.LT, expr.GT, expr.EQ, expr.LE, expr.GE}
		entries := make([]selEntry, n)
		for s := range entries {
			entries[s] = selEntry{slot: s, id: s + 1, pred: genPred(r, ops, 1)}
		}
		return entries
	}
	conjEntries := func(n int) []selEntry {
		r := rand.New(rand.NewSource(int64(n)))
		ranges := []expr.Op{expr.LT, expr.GT, expr.LE, expr.GE}
		entries := make([]selEntry, n)
		for s := range entries {
			p := genPred(r, ranges, 2)
			if s%2 == 0 {
				// benchTuple keys are 0–31: fold the keyed half onto them so
				// buckets are hit and residuals run.
				p = expr.True().
					And(expr.Comparison{Field: expr.KeyField, Op: expr.EQ, Value: keyedKey(s) % 32}).
					And(expr.Comparison{Field: s % 5, Op: expr.LT, Value: int64(200 + (37*s)%700)})
			}
			entries[s] = selEntry{slot: s, id: s + 1, pred: p}
		}
		return entries
	}
	workloads := []struct {
		name string
		mk   func(n int) []selEntry
	}{
		{"overlap", overlapEntries},
		{"random", genEntries},
		{"conj", conjEntries},
	}
	for _, wl := range workloads {
		for _, n := range []int{64, 128, 256, 512} {
			for _, mode := range []string{"index", "scan"} {
				b.Run(fmt.Sprintf("%s/%dq/%s", wl.name, n, mode), func(b *testing.B) {
					sel := NewSharedSelection(0, 0, NewOpMetrics(nil))
					sel.installTable(wl.mk(n))
					em := &spe.Emitter{}
					classify := func(t event.Tuple) { sel.OnTuple(0, t, em) }
					if mode == "scan" {
						classify = func(t event.Tuple) {
							scanTuple(sel, t)
							if !sel.qsTmp.IsEmpty() {
								t.QuerySet = sel.qsTmp.Clone()
								em.EmitTuple(t)
							}
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						classify(benchTuple(i, bitset.Bits{}, 50))
					}
				})
			}
		}
	}
}

// BenchmarkAblationWindowFire contrasts the window-fire path (DESIGN.md §15:
// one trigger per extent, equivalence blocks) against the test suite's
// reference, which fires every query on its own, across window/slide ratios
// (how many slices one window spans) and query counts (how much merge work
// the blocks share). Each iteration folds one fresh tuple and fires one
// full-length window, mirroring the windowfire kernel.
func BenchmarkAblationWindowFire(b *testing.B) {
	for _, ratio := range []int{8, 32, 128} {
		for _, queries := range []int{16, 64, 256} {
			for _, mode := range []string{"reference", "engine"} {
				b.Run(fmt.Sprintf("ratio%d/%dq/%s", ratio, queries, mode), func(b *testing.B) {
					length := event.Time(ratio * 100)
					agg := benchAggWindow(queries, window.SlidingSpec(length, 100))
					qs := bitset.AllUpTo(queries)
					em := &spe.Emitter{}
					// ~16 tuples per slice over 32 keys.
					for i := 0; i < 16*ratio; i++ {
						agg.OnTuple(0, benchTuple(i, qs, event.Time(i)*100/16%length), em)
					}
					ext := window.Extent{Start: 0, End: length}
					fire := func() { agg.fireBench(ext) }
					if mode == "reference" {
						fire = func() {
							for _, aq := range agg.win.queries.ordered {
								agg.fireWindowScan(ext, aq, agg.win.table.Latest())
							}
						}
					}
					fire()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						agg.OnTuple(0, benchTuple(i, qs, length-1), em)
						fire()
					}
				})
			}
		}
	}
}

// BenchmarkAblationAppendOnlyQuerySets contrasts slot reuse (Figure 3c)
// with append-only slots (Figure 3b): after heavy churn, append-only
// query-sets are wide and sparse, and every bitset operation pays for it.
func BenchmarkAblationAppendOnlyQuerySets(b *testing.B) {
	for _, mode := range []changelog.Mode{changelog.SlotReuse, changelog.AppendOnly} {
		b.Run(mode.String(), func(b *testing.B) {
			reg := changelog.NewRegistry(mode)
			id := 1
			// Churn: 10 live queries, 2000 total created.
			for step := 0; step < 2000; step++ {
				var del []int
				if id > 10 {
					del = []int{id - 10}
				}
				if _, err := reg.Apply(event.Time(step), []int{id}, del); err != nil {
					b.Fatal(err)
				}
				id++
			}
			active := reg.ActiveSlots()
			probe := active.Clone()
			b.ReportMetric(float64(reg.NumSlots()), "slots")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !active.Intersects(probe) {
					b.Fatal("must intersect")
				}
				_ = active.And(probe)
			}
		})
	}
}
