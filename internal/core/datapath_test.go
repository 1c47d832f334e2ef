package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astream/internal/bitset"
	"astream/internal/changelog"
	"astream/internal/event"
	"astream/internal/expr"
	"astream/internal/spe"
	"astream/internal/sqlstream"
	"astream/internal/window"
)

// TestChangelogNeverBehindItsTime: a changelog released from a goroutine
// other than the ingest pump — here a concurrent Submit — reaches the stream
// ahead of every tuple at or past its event-time. Otherwise the new query
// misses some of them depending on thread timing, and a replay of the input
// log, which weaves the changelog in at its time, computes rows the live run
// did not. Fifty tuples per event-ms into a one-ms tumbling COUNT: every
// window from the query's activation on must count all fifty.
func TestChangelogNeverBehindItsTime(t *testing.T) {
	const perMs, tail = 50, 5
	for run := 0; run < 100; run++ {
		eng, err := NewEngine(Config{Streams: 1, Parallelism: 1, BatchSize: 1, BatchTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		sink := &collectSink{}
		var acked atomic.Bool
		submitted := make(chan struct{})
		go func() {
			defer close(submitted)
			_, ack, err := eng.Submit(aggQ(window.TumblingSpec(1), sqlstream.AggCount, -1, expr.True()), sink)
			if err != nil {
				t.Error(err)
				return
			}
			<-ack
			acked.Store(true)
		}()
		// Ingest until the changelog is out, then a few whole event-ms more.
		end := -1
		for i := 0; end < 0 || i < end; i++ {
			if end < 0 && acked.Load() {
				end = (i/perMs + tail) * perMs
			}
			if i > 1_000_000 {
				t.Fatal("the submission was never acknowledged")
			}
			if err := eng.Ingest(0, event.Tuple{Key: 1, Time: event.Time(i / perMs)}); err != nil {
				t.Fatal(err)
			}
		}
		<-submitted
		eng.Drain()
		// At P=1 the selection runs on the ingest goroutine, and after the
		// final watermark its one table version starts at the changelog.
		sel := eng.selLogics[0][0]
		at := sel.versions[len(sel.versions)-1].from
		counts := map[event.Time]int64{}
		for _, r := range sink.all() {
			counts[r.Window.Start] = r.Value
		}
		last := event.Time(end/perMs - 1)
		if len(counts) != int(last-at+1) {
			t.Fatalf("run %d: %d windows for the changelog at %v and data up to %v", run, len(counts), at, last)
		}
		for ms := at; ms <= last; ms++ {
			if counts[ms] != perMs {
				t.Fatalf("run %d: changelog at %v, window %v counted %d of its %d tuples", run, at, ms, counts[ms], perMs)
			}
		}
	}
}

// TestRejectedBatchQueuesNothing: a session batch the registry rejects (a
// query created and stopped in one batch) raises no stream's pending count
// for good, so ingest does not take the stream lock for every later tuple,
// and the next batch weaves in as usual.
func TestRejectedBatchQueuesNothing(t *testing.T) {
	eng, err := NewEngine(Config{Streams: 2, BatchSize: 2, BatchTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := eng.Submit(selQ(expr.True()), nil)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := eng.StopQuery(id)
	if err != nil {
		t.Fatal(err)
	}
	<-ack
	if errs := eng.SessionErrors(); len(errs) != 1 {
		t.Fatalf("session errors %v, want the one rejected batch", errs)
	}
	for s, ing := range eng.ingress {
		if n := ing.pendingCount.Load(); n != 0 || len(ing.pending) != 0 {
			t.Fatalf("stream %d: pending count %d with %d queued after a rejected batch", s, n, len(ing.pending))
		}
	}
	sink := &collectSink{}
	if _, _, err = eng.Submit(selQ(expr.True()), sink); err != nil {
		t.Fatal(err)
	}
	eng.session.flushNow()
	if err := eng.Ingest(0, event.Tuple{Key: 1, Time: 3}); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if got := sink.all(); len(got) != 1 {
		t.Fatalf("the batch after the rejected one delivered %d rows, want 1", len(got))
	}
}

// countedRun drives one engine over a fixed input with two selective
// aggregation queries and returns it drained. poll, when set, runs on its own
// goroutine for the whole run and is told to stop before Drain returns.
func countedRun(t *testing.T, parallelism, nodes int, poll func(e *Engine, stop <-chan struct{})) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{Streams: 1, Parallelism: parallelism, Nodes: nodes, BatchSize: 1, BatchTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{
		aggQ(window.TumblingSpec(10), sqlstream.AggSum, 0, gt(0, 600)),
		aggQ(window.SlidingSpec(20, 5), sqlstream.AggCount, -1, gt(1, 850)),
	} {
		_, ack, err := eng.Submit(q, SinkFunc(func(Result) {}))
		if err != nil {
			t.Fatal(err)
		}
		<-ack
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if poll != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			poll(eng, stop)
		}()
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < countedTuples; i++ {
		tu := event.Tuple{Key: rng.Int63n(97), Time: event.Time(i / 8)}
		for f := range tu.Fields {
			tu.Fields[f] = rng.Int63n(1000)
		}
		if err := eng.Ingest(0, tu); err != nil {
			t.Fatal(err)
		}
	}
	eng.Drain()
	close(stop)
	wg.Wait()
	return eng
}

const countedTuples = 20_000

// selectionCounts reads the selection's counters from a metrics block.
func selectionCounts(m *OpMetrics) (selected, dropped uint64) {
	return atomic.LoadUint64(&m.Selected), atomic.LoadUint64(&m.Dropped)
}

// TestSelectionCountersExactAtP2: two selection instances on two nodes count
// into instance-owned words and publish at control callbacks; after Drain
// the shared block is exact — every ingested tuple classified once, selected
// or dropped — and selects what one instance selects alone.
func TestSelectionCountersExactAtP2(t *testing.T) {
	sel, drop := selectionCounts(countedRun(t, 2, 2, nil).Metrics())
	if sel+drop != countedTuples {
		t.Fatalf("P=2: selected %d + dropped %d; want %d tuples", sel, drop, countedTuples)
	}
	if want, _ := selectionCounts(countedRun(t, 1, 1, nil).Metrics()); sel != want || sel == 0 || drop == 0 {
		t.Fatalf("P=2 selected %d (dropped %d), P=1 selected %d", sel, drop, want)
	}
}

// TestSelectionCountersPolledDuringRun reads QoS() and Metrics() from a third
// goroutine while a P=2 run publishes into them (run it under -race): every
// counter only grows, and after Drain the counts are exact.
func TestSelectionCountersPolledDuringRun(t *testing.T) {
	var reads atomic.Int64
	eng := countedRun(t, 2, 2, func(e *Engine, stop <-chan struct{}) {
		var prev [5]uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := e.QoS()
			var cur [5]uint64
			cur[0], cur[1], cur[2] = q.Selected, q.Dropped, q.AggResults
			cur[3], cur[4] = selectionCounts(e.Metrics())
			for i := range cur {
				if cur[i] < prev[i] {
					t.Errorf("counter %d fell from %d to %d", i, prev[i], cur[i])
					return
				}
			}
			if cur[3] < cur[0] || cur[4] < cur[1] {
				t.Errorf("Metrics() read %d/%d after QoS() read %d/%d", cur[3], cur[4], cur[0], cur[1])
				return
			}
			prev = cur
			reads.Add(1)
		}
	})
	q := eng.QoS()
	if q.Selected+q.Dropped != countedTuples || reads.Load() == 0 {
		t.Fatalf("after Drain: selected %d + dropped %d, want %d (%d polls)", q.Selected, q.Dropped, countedTuples, reads.Load())
	}
}

// TestSelectionCountersSharedBlock wires two selections to one metrics block
// the way the ledger's stage replay does. Each adds its own counts when it
// returns from a watermark, changelog or end-of-stream callback, so the
// block then holds their exact sum — and no tuple writes it before.
func TestSelectionCountersSharedBlock(t *testing.T) {
	m := NewOpMetrics(nil)
	out := spe.NewChainedEmitter(&spe.SinkLogic{}, nil)
	var sels [2]*SharedSelection
	for s := range sels {
		sels[s] = NewSharedSelection(s, 0, m)
		sels[s].installTable([]selEntry{{slot: s, id: s + 1, pred: gt(s, 500)}})
	}
	block := func() (b [2]uint64) {
		b[0], b[1] = selectionCounts(m)
		return b
	}
	var want [2]uint64 // selected, dropped
	feed := func(s, n int, at event.Time, control string) {
		published := block()
		for i := 0; i < n; i++ {
			v := int64(i*37) % 1000
			tu := event.Tuple{Key: int64(i), Time: at}
			tu.Fields[s] = v
			sels[s].OnTuple(0, tu, out)
			if v > 500 {
				want[0]++
			} else {
				want[1]++
			}
		}
		if got := block(); got != published {
			t.Fatalf("instance %d's tuples moved the block from %v to %v before its %s", s, published, got, control)
		}
		switch control {
		case "watermark":
			sels[s].OnWatermark(at, out)
		case "changelog":
			sels[s].OnChangelog(&ChangelogMsg{CL: &changelog.Changelog{Seq: 1, Time: at, Set: bitset.AllUpTo(2), Slots: 2}}, at, out)
		case "end of stream":
			sels[s].OnEOS(out)
		}
		if got := block(); got != want {
			t.Fatalf("after instance %d's %s at %v: block holds %v, want %v", s, control, at, got, want)
		}
	}
	feed(0, 300, 1, "watermark")
	feed(1, 200, 1, "watermark")
	feed(0, 150, 2, "changelog")
	feed(1, 1000, 2, "end of stream")
	feed(0, 70, 3, "end of stream")
}
