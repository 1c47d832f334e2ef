// Package driver implements the experimental driver of the paper's Figure 5:
// two FIFO queues — one for user query requests, one for input tuples — with
// ACK-based backpressure on query submission and closed-loop backpressure on
// tuple ingestion. The driver treats the AStream engine and the baseline
// engine uniformly as systems under test.
package driver

import (
	"sync"
	"sync/atomic"
	"time"

	"astream/internal/core"
	"astream/internal/event"
	"astream/internal/gen"
	"astream/internal/metrics"
)

// SUT is the system-under-test surface shared by core.Engine (AStream) and
// baseline.Engine (query-at-a-time).
type SUT interface {
	Submit(q *core.Query, sink core.Sink) (int, <-chan struct{}, error)
	StopQuery(id int) (<-chan struct{}, error)
	Ingest(stream int, t event.Tuple) error
	ActiveQueries() int
	DeployRecords() []core.DeployRecord
	Drain()
}

// Request is one user action in the request queue.
type Request struct {
	// Query to create (nil for a stop request).
	Query *core.Query
	// StopOrdinal stops the n-th previously created query (1-based).
	StopOrdinal int
	// Enqueued is stamped by the driver.
	Enqueued time.Time
}

// Config parameterizes a driver run.
type Config struct {
	// Streams is the number of input streams to pump.
	Streams int
	// RequestBatch is how many user requests the driver sends per round
	// before waiting for the ACK (Figure 5's batching).
	RequestBatch int
	// TupleQueueCap bounds the input tuple queue per stream.
	TupleQueueCap int
	// LatencySample: 1-in-n results sampled for event-time latency.
	LatencySample int
	// Now is the wall clock (injectable).
	Now func() time.Time
}

func (c *Config) setDefaults() {
	if c.Streams <= 0 {
		c.Streams = 1
	}
	if c.RequestBatch <= 0 {
		c.RequestBatch = 1
	}
	if c.TupleQueueCap <= 0 {
		c.TupleQueueCap = 4096
	}
	if c.LatencySample <= 0 {
		c.LatencySample = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Driver pumps tuples and requests into a SUT and records the paper's
// metrics.
type Driver struct {
	cfg Config
	sut SUT

	reqMu    sync.Mutex
	requests []Request

	tupleQ []chan event.Tuple

	// Metrics.
	Ingested     *metrics.Meter
	Results      *metrics.Meter
	DeployLat    *metrics.Histogram // request enqueue -> ACK (queue wait included)
	EventTimeLat *metrics.Histogram // tuple event-time -> sink delivery
	QueueLat     *metrics.Histogram // tuple enqueue -> ingestion

	sustain metrics.Sustainability

	queryOrdinals []int // created query IDs in submission order
	resultCounts  map[int]*uint64
	cntMu         sync.Mutex

	pumpWG  sync.WaitGroup
	stopped atomic.Bool
}

// New creates a driver bound to a SUT.
func New(cfg Config, sut SUT) *Driver {
	cfg.setDefaults()
	d := &Driver{
		cfg:          cfg,
		sut:          sut,
		tupleQ:       make([]chan event.Tuple, cfg.Streams),
		Ingested:     metrics.NewMeter(func() time.Time { return cfg.Now() }),
		Results:      metrics.NewMeter(func() time.Time { return cfg.Now() }),
		DeployLat:    metrics.NewHistogram(),
		EventTimeLat: metrics.NewHistogram(),
		QueueLat:     metrics.NewHistogram(),
		resultCounts: map[int]*uint64{},
	}
	for i := range d.tupleQ {
		d.tupleQ[i] = make(chan event.Tuple, cfg.TupleQueueCap)
	}
	return d
}

// sinkFor builds the per-query sink: counts results and samples event-time
// latency at the sink, as §3.4 describes.
func (d *Driver) sinkFor() (core.Sink, *uint64) {
	var n uint64
	cnt := &n
	sample := uint64(d.cfg.LatencySample)
	return core.SinkFunc(func(r core.Result) {
		d.Results.Add(1)
		k := atomic.AddUint64(cnt, 1)
		if in := r.IngestNanos(); in > 0 && k%sample == 0 {
			lat := d.cfg.Now().UnixNano() - in
			if lat > 0 {
				d.EventTimeLat.Observe(time.Duration(lat))
			}
		}
	}), cnt
}

// EnqueueRequest appends a user request to the FIFO request queue.
func (d *Driver) EnqueueRequest(r Request) {
	r.Enqueued = d.cfg.Now()
	d.reqMu.Lock()
	d.requests = append(d.requests, r)
	d.reqMu.Unlock()
}

// PumpRequests pops up to cfg.RequestBatch requests, submits them, and waits
// for the batch ACK; it returns the number processed. Deployment latency is
// measured from enqueue to ACK, so time spent waiting in the queue counts —
// exactly the paper's "the longer the user request stays in the queue, the
// higher is its deployment latency".
func (d *Driver) PumpRequests() (int, error) {
	d.reqMu.Lock()
	n := len(d.requests)
	if n > d.cfg.RequestBatch {
		n = d.cfg.RequestBatch
	}
	batch := d.requests[:n]
	d.requests = d.requests[n:]
	d.reqMu.Unlock()
	if n == 0 {
		return 0, nil
	}
	type pend struct {
		ack <-chan struct{}
		at  time.Time
	}
	var pends []pend
	for _, r := range batch {
		if r.Query != nil {
			sink, cnt := d.sinkFor()
			id, ack, err := d.sut.Submit(r.Query, sink)
			if err != nil {
				return 0, err
			}
			d.cntMu.Lock()
			d.queryOrdinals = append(d.queryOrdinals, id)
			d.resultCounts[id] = cnt
			d.cntMu.Unlock()
			pends = append(pends, pend{ack: ack, at: r.Enqueued})
			continue
		}
		d.cntMu.Lock()
		var id int
		if r.StopOrdinal >= 1 && r.StopOrdinal <= len(d.queryOrdinals) {
			id = d.queryOrdinals[r.StopOrdinal-1]
		}
		d.cntMu.Unlock()
		if id == 0 {
			continue
		}
		ack, err := d.sut.StopQuery(id)
		if err != nil {
			return 0, err
		}
		pends = append(pends, pend{ack: ack, at: r.Enqueued})
	}
	for _, p := range pends {
		<-p.ack
		d.DeployLat.Observe(d.cfg.Now().Sub(p.at))
	}
	return n, nil
}

// PendingRequests reports the request queue length.
func (d *Driver) PendingRequests() int {
	d.reqMu.Lock()
	defer d.reqMu.Unlock()
	return len(d.requests)
}

// QueryIDs returns the created query IDs in submission order.
func (d *Driver) QueryIDs() []int {
	d.cntMu.Lock()
	defer d.cntMu.Unlock()
	out := make([]int, len(d.queryOrdinals))
	copy(out, d.queryOrdinals)
	return out
}

// ResultCount returns a query's delivered-result count.
func (d *Driver) ResultCount(id int) uint64 {
	d.cntMu.Lock()
	cnt := d.resultCounts[id]
	d.cntMu.Unlock()
	if cnt == nil {
		return 0
	}
	return atomic.LoadUint64(cnt)
}

// OfferTuple enqueues a tuple for a stream, blocking when the queue is full
// (generator-side backpressure).
func (d *Driver) OfferTuple(stream int, t event.Tuple) {
	d.tupleQ[stream] <- t
}

// TryOfferTuple enqueues without blocking; reports acceptance. An open-loop
// generator uses this and counts rejects as overload.
func (d *Driver) TryOfferTuple(stream int, t event.Tuple) bool {
	select {
	case d.tupleQ[stream] <- t:
		return true
	default:
		return false
	}
}

// StartPumps launches one ingestion goroutine per stream, each popping the
// FIFO tuple queue and pushing into the SUT (which backpressures through its
// bounded exchanges).
func (d *Driver) StartPumps() {
	for s := range d.tupleQ {
		s := s
		d.pumpWG.Add(1)
		go func() {
			defer d.pumpWG.Done()
			for t := range d.tupleQ[s] {
				if t.IngestNanos > 0 {
					q := d.cfg.Now().UnixNano() - t.IngestNanos
					if q > 0 && d.Ingested.Total()%uint64(d.cfg.LatencySample) == 0 {
						d.QueueLat.Observe(time.Duration(q))
					}
				}
				if err := d.sut.Ingest(s, t); err != nil {
					return
				}
				d.Ingested.Add(1)
			}
		}()
	}
}

// CloseTuples closes the tuple queues; pumps finish once drained.
func (d *Driver) CloseTuples() {
	if d.stopped.Swap(true) {
		return
	}
	for _, q := range d.tupleQ {
		close(q)
	}
}

// WaitPumps blocks until all ingestion pumps have drained.
func (d *Driver) WaitPumps() { d.pumpWG.Wait() }

// Finish closes the queues, waits for the pumps, and drains the SUT.
func (d *Driver) Finish() {
	d.CloseTuples()
	d.WaitPumps()
	d.sut.Drain()
}

// ObserveSustainability feeds the sustainability detector with a latency
// signal (call periodically with e.g. mean event-time latency).
func (d *Driver) ObserveSustainability(v float64) { d.sustain.Observe(v) }

// Sustainable reports the detector's verdict.
func (d *Driver) Sustainable() bool { return d.sustain.Sustainable() }

// GenerateAndOffer runs a data generator for n tuples per stream with the
// given event-time step, stamping IngestNanos at enqueue (the tuple's birth,
// so queue wait counts toward its latency).
func (d *Driver) GenerateAndOffer(gens []*gen.Data, n int, startAt event.Time, step event.Time) event.Time {
	at := startAt
	for i := 0; i < n; i++ {
		for s := 0; s < d.cfg.Streams && s < len(gens); s++ {
			t := gens[s].Next(at)
			t.IngestNanos = d.cfg.Now().UnixNano()
			d.OfferTuple(s, t)
		}
		at += step
	}
	return at
}
