// Benchmarks regenerating the paper's evaluation: one benchmark per figure
// (Figures 9–20) plus the ablation benchmarks DESIGN.md calls out. Each
// benchmark iteration runs a complete scaled-down experiment and reports the
// paper's metric as a custom benchmark metric, so
//
//	go test -bench=Fig -benchmem
//
// prints the reproduction's shape. cmd/astream-bench runs the same
// experiments with longer steady states and full grids.
package astream_test

import (
	"testing"
	"time"

	"astream"
	"astream/internal/experiments"
)

// benchScale keeps every iteration around half a second.
func benchScale() experiments.Scale {
	return experiments.Scale{Warmup: 150 * time.Millisecond, Measure: 350 * time.Millisecond}
}

func reportRun(b *testing.B, m experiments.Measurement) {
	b.ReportMetric(m.SlowestTupS, "slowest-tup/s")
	b.ReportMetric(m.OverallTupS, "overall-tup/s")
	b.ReportMetric(float64(m.EventTimeLat.Microseconds()), "latency-us")
	b.ReportMetric(float64(m.DeployMean.Microseconds()), "deploy-us")
}

func sc1Params(kind experiments.QueryKind, sys experiments.System, qps float64, qp int) experiments.Params {
	sc := benchScale()
	return experiments.Params{
		System: sys, Kind: kind, Nodes: 1, Scenario: "SC1",
		QueriesPerSec: qps, MaxParallelQ: qp,
		Warmup: sc.Warmup, Measure: sc.Measure, Seed: 1,
	}
}

// BenchmarkFig09SlowestThroughputSC1 reproduces Figure 9a: slowest data
// throughput under SC1 for AStream at growing query parallelism, against the
// single-query baseline.
func BenchmarkFig09SlowestThroughputSC1(b *testing.B) {
	cases := []struct {
		name string
		p    experiments.Params
	}{
		{"baseline/single", sc1Params(experiments.AggK, experiments.Baseline, 1, 1)},
		{"astream/single", sc1Params(experiments.AggK, experiments.AStream, 1, 1)},
		{"astream/10qs-60qp", sc1Params(experiments.AggK, experiments.AStream, 10, 60)},
		{"astream/100qs-1000qp", sc1Params(experiments.AggK, experiments.AStream, 100, 1000)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, experiments.Run(c.p))
			}
		})
	}
}

// BenchmarkFig09OverallThroughputSC1 reproduces Figure 9b: overall (query-
// serving) throughput rises with parallelism under sharing.
func BenchmarkFig09OverallThroughputSC1(b *testing.B) {
	for _, qp := range []int{1, 20, 60, 200} {
		p := sc1Params(experiments.JoinK, experiments.AStream, 100, qp)
		b.Run(p.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, experiments.Run(p))
			}
		})
	}
}

// BenchmarkFig10DeploymentTimeline reproduces Figure 10: per-query
// deployment latency, AStream flat vs baseline growing.
func BenchmarkFig10DeploymentTimeline(b *testing.B) {
	for _, sys := range []experiments.System{experiments.AStream, experiments.Baseline} {
		b.Run(sys.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := experiments.Fig10DeployTimeline(sys, 10, benchScale())
				last := pts[len(pts)-1].Latency
				first := pts[0].Latency
				b.ReportMetric(float64(first.Microseconds()), "first-deploy-us")
				b.ReportMetric(float64(last.Microseconds()), "last-deploy-us")
			}
		})
	}
}

// BenchmarkFig11DeploymentLatencySC1 reproduces Figure 11 (deployment
// latencies across the SC1 grid).
func BenchmarkFig11DeploymentLatencySC1(b *testing.B) {
	p := sc1Params(experiments.JoinK, experiments.AStream, 100, 100)
	for i := 0; i < b.N; i++ {
		m := experiments.Run(p)
		b.ReportMetric(float64(m.DeployMean.Microseconds()), "deploy-mean-us")
		b.ReportMetric(float64(m.DeployMax.Microseconds()), "deploy-max-us")
	}
}

// BenchmarkFig12EventTimeLatencySC1 reproduces Figure 12.
func BenchmarkFig12EventTimeLatencySC1(b *testing.B) {
	for _, kind := range []experiments.QueryKind{experiments.JoinK, experiments.AggK} {
		b.Run(kind.String(), func(b *testing.B) {
			p := sc1Params(kind, experiments.AStream, 100, 60)
			for i := 0; i < b.N; i++ {
				m := experiments.Run(p)
				b.ReportMetric(float64(m.EventTimeLat.Microseconds()), "latency-us")
				b.ReportMetric(float64(m.EventTimeP95.Microseconds()), "latency-p95-us")
			}
		})
	}
}

func sc2Params(kind experiments.QueryKind, n int) experiments.Params {
	sc := benchScale()
	return experiments.Params{
		System: experiments.AStream, Kind: kind, Nodes: 1, Scenario: "SC2",
		BatchN: n, BatchEvery: 10 * time.Second,
		Warmup: sc.Warmup, Measure: sc.Measure, Seed: 2,
	}
}

// BenchmarkFig13EventTimeLatencySC2 reproduces Figure 13.
func BenchmarkFig13EventTimeLatencySC2(b *testing.B) {
	for _, n := range []int{10, 30, 50} {
		p := sc2Params(experiments.AggK, n)
		b.Run(p.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := experiments.Run(p)
				b.ReportMetric(float64(m.EventTimeLat.Microseconds()), "latency-us")
			}
		})
	}
}

// BenchmarkFig14ThroughputSC2 reproduces Figure 14 (slowest and overall
// throughput under churn).
func BenchmarkFig14ThroughputSC2(b *testing.B) {
	for _, n := range []int{10, 30, 50} {
		p := sc2Params(experiments.JoinK, n)
		b.Run(p.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, experiments.Run(p))
			}
		})
	}
}

// BenchmarkFig15DeploymentLatencySC2 reproduces Figure 15.
func BenchmarkFig15DeploymentLatencySC2(b *testing.B) {
	p := sc2Params(experiments.JoinK, 30)
	for i := 0; i < b.N; i++ {
		m := experiments.Run(p)
		b.ReportMetric(float64(m.DeployMean.Microseconds()), "deploy-mean-us")
	}
}

// BenchmarkFig16ComplexTimeline reproduces Figure 16: complex queries under
// churn; reports the final phase's throughput and query count.
func BenchmarkFig16ComplexTimeline(b *testing.B) {
	sc := experiments.Scale{Warmup: 50 * time.Millisecond, Measure: 120 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig16Timeline(sc)
		last := pts[len(pts)-1]
		b.ReportMetric(last.Throughput, "final-tup/s")
		b.ReportMetric(float64(last.Queries), "final-queries")
	}
}

// BenchmarkFig17ParallelismSweep reproduces Figure 17: slowest throughput as
// query parallelism grows (log steps).
func BenchmarkFig17ParallelismSweep(b *testing.B) {
	for _, qp := range []int{1, 16, 256} {
		p := sc1Params(experiments.JoinK, experiments.AStream, 100, qp)
		b.Run(p.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := experiments.Run(p)
				b.ReportMetric(m.SlowestTupS, "slowest-tup/s")
			}
		})
	}
}

// BenchmarkFig18SharingOverhead reproduces Figure 18b: single-query overhead
// of the sharing machinery.
func BenchmarkFig18SharingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, base, ov := experiments.Fig18bSingleQueryOverhead(benchScale(), experiments.AggK)
		b.ReportMetric(a.SlowestTupS, "astream-tup/s")
		b.ReportMetric(base.SlowestTupS, "baseline-tup/s")
		b.ReportMetric(100*ov, "overhead-%")
	}
}

// BenchmarkFig19AdhocImpact reproduces Figure 19: throughput before/after an
// ad-hoc query wave.
func BenchmarkFig19AdhocImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig19Impact(benchScale(), "SC1", []int{10}, []int{20})
		b.ReportMetric(pts[0].BeforeTupS, "before-tup/s")
		b.ReportMetric(pts[0].AfterTupS, "after-tup/s")
	}
}

// BenchmarkFig20Scalability reproduces Figure 20: sustainable ad-hoc query
// count per node count at a fixed offered rate.
func BenchmarkFig20Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig20Scalability(benchScale(), "SC1", []int{1, 2}, []int{25, 50, 100, 200}, 10000)
		b.ReportMetric(float64(pts[0].Sustained), "1node-queries")
		b.ReportMetric(float64(pts[len(pts)-1].Sustained), "2node-queries")
	}
}

// --- ablation benchmarks (DESIGN.md §5) -------------------------------------

// BenchmarkAblationNoSlicing contrasts shared execution with the paper's
// alternative of evaluating every query separately: AStream with N queries
// vs the baseline with N queries (which IS per-query evaluation).
func BenchmarkAblationNoSlicing(b *testing.B) {
	for _, sys := range []experiments.System{experiments.AStream, experiments.Baseline} {
		b.Run(sys.String(), func(b *testing.B) {
			p := sc1Params(experiments.AggK, sys, 100, 6)
			for i := 0; i < b.N; i++ {
				m := experiments.Run(p)
				b.ReportMetric(m.OverallTupS, "overall-tup/s")
			}
		})
	}
}

// BenchmarkAblationRouterCopy measures the router's per-query data copy by
// comparing result fan-out at different query counts over the same input.
func BenchmarkAblationRouterCopy(b *testing.B) {
	for _, qp := range []int{1, 32} {
		p := sc1Params(experiments.AggK, experiments.AStream, 100, qp)
		b.Run(p.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := experiments.Run(p)
				b.ReportMetric(m.ResultsPerSec, "results/s")
			}
		})
	}
}

// BenchmarkEngineIngest measures the raw shared-pipeline ingest path (no
// experiment scaffolding): one aggregation query, direct Ingest calls.
func BenchmarkEngineIngest(b *testing.B) {
	eng, err := astream.New(astream.Config{Streams: 1, Parallelism: 2, BatchSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := astream.NewAggregation(astream.Tumbling(1000), astream.AggSum, 0, astream.True())
	_, ack, err := eng.Submit(q, astream.SinkFunc(func(astream.Result) {}))
	if err != nil {
		b.Fatal(err)
	}
	<-ack
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := astream.Tuple{Key: int64(i % 1000), Time: astream.Time(i)}
		t.Fields[0] = int64(i)
		if err := eng.Ingest(0, t); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	eng.Drain()
}
