package main

import (
	"sync/atomic"
	"syscall"
	"time"

	"astream/internal/core"
	"astream/internal/event"
)

// processEpoch anchors the monotonic clock every measurement reads.
var processEpoch = time.Now()

// nowNs is monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(processEpoch)) }

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sinkCtl is the state shared by every result sink of one engine run: the
// sampling switch and, for the open phase, the schedule that maps a window
// end to the wall-clock instant its closing tuple was due.
type sinkCtl struct {
	sampleEvery uint64
	sampling    atomic.Bool

	// Open-phase schedule, written before sampling is switched on.
	startNs   int64      // due time of the first measured tuple
	startMs   event.Time // event-time of the first measured tuple
	endMs     event.Time // event-time just past the last measured tuple
	nsPerMs   float64    // wall nanoseconds per event-time millisecond
	samples   []int64    // delay samples in ns, claimed by atomic index
	sampleIdx atomic.Int64
	dropped   atomic.Int64 // samples that did not fit
}

// dueNs is the scheduled wall time of the first tuple at or past event-time t.
func (c *sinkCtl) dueNs(t event.Time) int64 {
	return c.startNs + int64(float64(t-c.startMs)*c.nsPerMs)
}

// querySink counts one query's results and, while sampling is on, records the
// delay of every k-th windowed result whose window closed inside the measured
// span. It is called from operator goroutines (two of them at P=2).
type querySink struct {
	ctl *sinkCtl
	n   atomic.Uint64
}

func (s *querySink) OnResult(r core.Result) {
	n := s.n.Add(1)
	c := s.ctl
	if n%c.sampleEvery != 0 || !c.sampling.Load() {
		return
	}
	end := r.Window.End
	if end <= c.startMs || end > c.endMs {
		return // fired by the warm-up's tail or by Drain: no schedule to compare with
	}
	d := nowNs() - c.dueNs(end)
	i := c.sampleIdx.Add(1) - 1
	if int(i) >= len(c.samples) {
		c.dropped.Add(1)
		return
	}
	c.samples[i] = d
}

func (s *querySink) count() uint64 { return s.n.Load() }

// probeSink records when a deployment probe's first result arrived.
type probeSink struct {
	submitNs int64
	firstNs  atomic.Int64
	n        atomic.Uint64
}

func (p *probeSink) OnResult(core.Result) {
	if p.n.Add(1) == 1 {
		p.firstNs.Store(nowNs())
	}
}

// feeder is the generator: one goroutine that stamps keys and event-times on
// the cycled input block and calls ingest itself — no queue, no extra thread.
// Tuple i of every stream has key i mod keys and event-time i / tuplesPerMs.
type feeder struct {
	ingest      func(stream int, t event.Tuple) error
	blocks      [][]event.Tuple
	keys        int64
	tuplesPerMs int

	idx   int // tuples fed so far, per stream
	key   int64
	ms    event.Time
	inMs  int
	stamp int64 // IngestNanos written on every tuple; non-zero so the engine reads no clock

	// eventEvery > 0 calls onEvent after every eventEvery-th tuple, i.e.
	// after the last tuple of an event-millisecond: the changelog it
	// triggers takes effect with the very next tuple. toEvent counts down.
	eventEvery int
	toEvent    int
	onEvent    func()

	failed int // ingest errors
}

// feed pushes the next n tuples of every stream.
func (f *feeder) feed(n int) {
	mask := blockTuples - 1
	for end := f.idx + n; f.idx < end; {
		for s, b := range f.blocks {
			t := b[f.idx&mask]
			t.Key = f.key
			t.Time = f.ms
			t.IngestNanos = f.stamp
			if err := f.ingest(s, t); err != nil {
				f.failed++
			}
		}
		f.idx++
		if f.key++; f.key == f.keys {
			f.key = 0
		}
		if f.inMs++; f.inMs == f.tuplesPerMs {
			f.inMs = 0
			f.ms++
		}
		if f.toEvent--; f.toEvent == 0 {
			f.toEvent = f.eventEvery
			f.onEvent()
		}
	}
}

// openLoop feeds n tuples per stream on a fixed schedule, whatever the engine
// does: one batch per event-millisecond, periodNs*tuplesPerMs apart. Batches
// straddle the millisecond boundaries — batch k holds the second half of
// millisecond k-1 and the first half of millisecond k and is due when
// millisecond k starts — so a control event, which runs at a boundary, is
// followed at once by tuples its changelog applies to instead of by the
// generator's sleep. It returns how late each batch started.
func (f *feeder) openLoop(n int, startNs int64, periodNs float64) (lateNs []int64) {
	half := f.tuplesPerMs / 2
	lateNs = make([]int64, 0, n/f.tuplesPerMs+1)
	chunkNs := periodNs * float64(f.tuplesPerMs)
	for k, fed := 0, 0; fed < n; k++ {
		m := f.tuplesPerMs
		if k == 0 {
			m -= half
		}
		if m > n-fed {
			m = n - fed
		}
		due := startNs + int64(float64(k)*chunkNs)
		now := nowNs()
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = nowNs()
		}
		lateNs = append(lateNs, now-due)
		f.stamp = due
		f.feed(m)
		fed += m
	}
	return lateNs
}
