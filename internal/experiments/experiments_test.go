package experiments

import (
	"testing"
	"time"

	"astream/internal/baseline"
	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/gen"
)

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	return Scale{Warmup: 80 * time.Millisecond, Measure: 200 * time.Millisecond}
}

func TestRunSC1AStreamAgg(t *testing.T) {
	sc := tinyScale()
	m := Run(apply(Params{Scenario: "SC1", QueriesPerSec: 100, MaxParallelQ: 20}, AggK, AStream, 1, sc, 1))
	if m.SlowestTupS <= 0 {
		t.Fatalf("no throughput measured: %+v", m)
	}
	if m.ActiveQueries < 1 {
		t.Fatalf("no active queries: %+v", m)
	}
	if m.OverallTupS < m.SlowestTupS {
		t.Fatalf("overall < slowest: %+v", m)
	}
	if m.Row() == "" {
		t.Fatal("empty row")
	}
}

func TestRunSC2AStreamJoin(t *testing.T) {
	sc := tinyScale()
	m := Run(apply(Params{Scenario: "SC2", BatchN: 5, BatchEvery: 2 * time.Second}, JoinK, AStream, 1, sc, 2))
	if m.SlowestTupS <= 0 {
		t.Fatalf("no throughput: %+v", m)
	}
}

func TestRunBaselineSingleQuery(t *testing.T) {
	sc := tinyScale()
	m := Run(apply(Params{Scenario: "SC1", MaxParallelQ: 1, QueriesPerSec: 1}, AggK, Baseline, 1, sc, 3))
	if m.SlowestTupS <= 0 {
		t.Fatalf("baseline no throughput: %+v", m)
	}
}

// sharingWork pushes one fixed input through a system serving the given
// number of aggregation queries and returns the two deterministic work
// counts the sharing claim is about: operator instances deployed, and
// per-tuple operator invocations (AStream: selection calls plus aggregation
// calls; baseline: tuple copies forked into per-query topologies).
func sharingWork(t *testing.T, sys System, queries, tuples int) (instances int, invocations uint64) {
	t.Helper()
	qg := gen.NewQueries(gen.DefaultQueryConfig(1), 4)
	data := gen.NewData(gen.DefaultDataConfig(), 4)
	feed := func(s sut) {
		for i := 0; i < queries; i++ {
			if _, _, err := s.Submit(qg.Aggregation(), core.SinkFunc(func(core.Result) {})); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < tuples; i++ {
			if err := s.Ingest(0, data.Next(event.Time(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if sys == Baseline {
		e, err := baseline.NewEngine(baseline.Config{Streams: 1, Parallelism: 1, WatermarkEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		feed(e)
		instances = e.InstanceCount()
		e.Drain()
		return instances, e.Forked()
	}
	// One session batch holds exactly the submitted queries, so they deploy
	// with the first tuple and no timer is involved.
	e, err := core.NewEngine(core.Config{Streams: 1, Parallelism: 1, BatchSize: queries, BatchTimeout: time.Hour, WatermarkEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	feed(e)
	e.Drain()
	q := e.QoS()
	return e.InstanceCount(), (q.Selected + q.Dropped) + q.Selected
}

// TestSharingBeatsBaseline is the paper's headline claim, asserted on work
// rather than on wall-clock time: for a fixed input, the shared engine's
// deployed operator instances and per-tuple operator invocations do not
// depend on how many queries it serves, while the query-at-a-time baseline's
// grow in proportion. (BenchmarkSharingVsBaseline keeps the throughput
// comparison, which a loaded machine can lose.)
func TestSharingBeatsBaseline(t *testing.T) {
	const tuples = 4000
	a1Inst, a1Calls := sharingWork(t, AStream, 1, tuples)
	a8Inst, a8Calls := sharingWork(t, AStream, 8, tuples)
	b1Inst, b1Calls := sharingWork(t, Baseline, 1, tuples)
	b8Inst, b8Calls := sharingWork(t, Baseline, 8, tuples)

	if a1Inst != a8Inst {
		t.Errorf("astream deployed %d instances for 1 query and %d for 8; the shared topology must not grow", a1Inst, a8Inst)
	}
	for _, calls := range []uint64{a1Calls, a8Calls} {
		// Every tuple meets the selection once and the aggregation at
		// most once, whatever the query count.
		if calls < tuples || calls > 2*tuples {
			t.Errorf("astream made %d operator invocations for %d tuples, want within [%d, %d]", calls, tuples, tuples, 2*tuples)
		}
	}
	if b8Inst != 8*b1Inst {
		t.Errorf("baseline deployed %d instances for 8 queries, want 8× the %d of one", b8Inst, b1Inst)
	}
	if b1Calls != tuples || b8Calls != 8*tuples {
		t.Errorf("baseline forked %d / %d tuple copies for 1 / 8 queries, want %d / %d", b1Calls, b8Calls, tuples, 8*tuples)
	}
	if a8Inst >= b8Inst || a8Calls >= b8Calls {
		t.Errorf("sharing did not win at 8 queries: astream %d instances, %d invocations vs baseline %d, %d",
			a8Inst, a8Calls, b8Inst, b8Calls)
	}
}

// BenchmarkSharingVsBaseline is the wall-clock side of the same claim: with
// ~8 concurrent queries, AStream's overall query-serving throughput against
// the baseline's, which degrades as the fork multiplies work.
func BenchmarkSharingVsBaseline(b *testing.B) {
	sc := Scale{Warmup: 200 * time.Millisecond, Measure: 500 * time.Millisecond}
	p := Params{Scenario: "SC1", QueriesPerSec: 100, MaxParallelQ: 8}
	for i := 0; i < b.N; i++ {
		a := Run(apply(p, AggK, AStream, 1, sc, 4))
		bl := Run(apply(p, AggK, Baseline, 1, sc, 4))
		b.ReportMetric(a.OverallTupS, "astream_tup/s")
		b.ReportMetric(bl.OverallTupS, "baseline_tup/s")
	}
}

func TestFig10Timeline(t *testing.T) {
	sc := tinyScale()
	pts := Fig10DeployTimeline(AStream, 5, sc)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, pt := range pts {
		if pt.Ordinal != i+1 {
			t.Fatalf("ordinals wrong: %+v", pts)
		}
	}
}

func TestFig16TimelinePhases(t *testing.T) {
	sc := Scale{Warmup: 50 * time.Millisecond, Measure: 120 * time.Millisecond}
	pts := Fig16Timeline(sc)
	if len(pts) != 6 {
		t.Fatalf("phases = %d, want 6", len(pts))
	}
	// Query count rises in phase 2 and falls in phase 3.
	if pts[1].Queries <= pts[0].Queries {
		t.Fatalf("phase 2 should add queries: %+v", pts[:2])
	}
	if pts[2].Queries >= pts[1].Queries {
		t.Fatalf("phase 3 should drop queries: %+v", pts[1:3])
	}
}

func TestFig18Shares(t *testing.T) {
	sc := tinyScale()
	shares := Fig18ComponentOverhead(sc, []int{4})
	if len(shares) != 1 {
		t.Fatalf("shares = %+v", shares)
	}
	s := shares[0]
	sum := s.QuerySetGen + s.Bitset + s.RouterC
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("component fractions sum to %.3f: %+v", sum, s)
	}
}

func TestFig19Impact(t *testing.T) {
	sc := tinyScale()
	pts := Fig19Impact(sc, "SC1", []int{5}, []int{5})
	if len(pts) != 1 || pts[0].BeforeTupS <= 0 || pts[0].AfterTupS <= 0 {
		t.Fatalf("impact = %+v", pts)
	}
}

func TestParamsLabel(t *testing.T) {
	p := Params{Scenario: "SC1", QueriesPerSec: 10, MaxParallelQ: 60}
	if p.Label() != "10q/s 60qp" {
		t.Fatalf("label = %q", p.Label())
	}
	p2 := Params{Scenario: "SC2", BatchN: 50, BatchEvery: 10 * time.Second}
	if p2.Label() != "50q/10s" {
		t.Fatalf("label = %q", p2.Label())
	}
	p3 := Params{Scenario: "SC1", MaxParallelQ: 1}
	if p3.Label() != "single query" {
		t.Fatalf("label = %q", p3.Label())
	}
}
