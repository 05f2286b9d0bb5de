// Package collector implements the data-acquisition layer of the ODA stack:
// sources expose instantaneous readings, agents sample them on a cadence and
// dispatch the batches to sinks (the TSDB, a wire client).
//
// Agents support two drive modes. Tick(now) lets the discrete-event
// simulator advance collection on virtual time; Run(ctx) samples on wall
// clock for live deployments. Both paths share the same collection logic,
// so analytics behave identically on simulated and real time.
package collector

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// Reading is one instantaneous observation from a source.
type Reading struct {
	ID    metric.ID
	Kind  metric.Kind
	Unit  metric.Unit
	Value float64
}

// Source produces readings on demand. Implementations live next to the
// subsystem they instrument (facility plant, node hardware, scheduler).
type Source interface {
	// Name identifies the source in agent statistics.
	Name() string
	// Collect returns current readings at virtual time now (Unix millis).
	Collect(now int64) []Reading
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc struct {
	SourceName string
	Fn         func(now int64) []Reading
}

// Name implements Source.
func (s SourceFunc) Name() string { return s.SourceName }

// Collect implements Source.
func (s SourceFunc) Collect(now int64) []Reading { return s.Fn(now) }

// Sink consumes a batch of readings collected at one instant.
type Sink interface {
	Consume(agent string, now int64, readings []Reading) error
}

// RejectedError is returned by a sink that accepted a batch but rejected N
// of its samples (duplicate timestamps, retention violations, …). The agent
// counts rejections in Stats.RejectedSamples instead of Stats.SinkErrors,
// so partial rejections and hard Consume failures stay distinguishable but
// both surface uniformly through Agent.Stats.
type RejectedError struct {
	// N is how many samples of the batch were rejected.
	N int
}

// Error implements error.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("collector: sink rejected %d samples", e.N)
}

// StoreSink writes readings into a TSDB store (*timeseries.Store) or its
// durable wrapper (*persist.DurableStore): it resolves each series once and
// then appends by interned ref, skipping per-sample key serialization,
// hashing and map lookups. Sources hand back readings in a stable order, so
// the ref cache is positional: cache slot i is validated against reading i
// by name and label identity, which makes the steady-state scrape zero-
// lookup as well as zero-alloc. The cache heals itself across ref epoch
// bumps (Downsample/Retain/recovery swaps).
type StoreSink struct {
	Store timeseries.RefAppender
	errs  atomic.Uint64

	mu       sync.Mutex
	refEpoch uint64
	cache    []sinkRef
	refBuf   []timeseries.RefEntry
}

// sinkRef is one positional ref-cache slot.
type sinkRef struct {
	name   string
	labels metric.Labels
	ref    timeseries.SeriesRef
	ok     bool
}

// Consume implements Sink; ingest errors are counted, not fatal, matching
// monitoring-fabric behaviour where one bad sample must not stop the flow.
// The whole scrape goes down as one AppendRefs so the store amortizes lock
// acquisition across the batch. Partial rejections are reported as a
// *RejectedError so the agent can account for them in
// Stats.RejectedSamples alongside every other sink's rejections — but a
// store that refused the scrape wholesale (it would not resolve a series,
// or it is closed: a durable store after Close reports
// timeseries.ErrStoreClosed) is a hard sink failure, not N per-sample
// rejections: it surfaces as the original error so Stats.SinkErrors counts
// it and RejectedSamples stays honest.
func (s *StoreSink) Consume(_ string, now int64, readings []Reading) error {
	if len(readings) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for attempt := 0; ; attempt++ {
		// Re-read every call: harnesses swap Store after a crash recovery,
		// and the fresh store's new epoch invalidates the cache.
		epoch := s.Store.RefEpoch()
		if epoch != s.refEpoch {
			for i := range s.cache {
				s.cache[i].ok = false
			}
			s.refEpoch = epoch
		}
		for len(s.cache) < len(readings) {
			s.cache = append(s.cache, sinkRef{})
		}
		s.refBuf = s.refBuf[:0]
		for i := range readings {
			r := &readings[i]
			c := &s.cache[i]
			if !c.ok || c.name != r.ID.Name || !c.labels.Equal(r.ID.Labels) {
				ref, err := s.Store.Resolve(r.ID, r.Kind, r.Unit)
				if err != nil {
					return err
				}
				c.name, c.labels, c.ref, c.ok = r.ID.Name, r.ID.Labels, ref, true
			}
			s.refBuf = append(s.refBuf, timeseries.RefEntry{Ref: c.ref, T: now, V: r.Value})
		}
		appended, err := s.Store.AppendRefs(s.refBuf)
		// A wholly-stale batch lost a race with an epoch bump between
		// resolving and appending; one re-resolve retry is double-append
		// safe because nothing landed. A mixed batch reports the skipped
		// entries as rejections, like out-of-order samples.
		if err != nil && appended == 0 && errors.Is(err, timeseries.ErrStaleRef) && attempt == 0 {
			s.refEpoch = 0 // 0 is never a live epoch: invalidates the cache
			continue
		}
		if errors.Is(err, timeseries.ErrStoreClosed) {
			return err
		}
		if rejected := len(readings) - appended; rejected > 0 {
			s.errs.Add(uint64(rejected))
			return &RejectedError{N: rejected}
		}
		return nil
	}
}

// Errors returns the number of rejected samples.
func (s *StoreSink) Errors() uint64 { return s.errs.Load() }

// WireSink pushes readings to a remote telemetry server over the wire
// protocol, one batch per collection round. Sends can be bounded by a
// deadline and retried with jittered exponential backoff, so a flaky
// aggregation endpoint costs bounded time per batch instead of stalling
// forever — combine with a queued registration (AddSinkQueued) to keep
// even that bounded latency off the scrape path.
type WireSink struct {
	Client *wire.Client
	// MaxRetries is how many times a failed send is retried before the
	// batch is given up on (0 = fail fast on the first error).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry, doubling on
	// each subsequent attempt (default 10ms when retries are enabled).
	// The actual delay is jittered uniformly within [base/2, base) so a
	// fleet of agents whose sends failed together does not hammer a
	// recovering server in lockstep.
	RetryBackoff time.Duration
	// SendDeadline bounds each send attempt's network write (0 = none).
	SendDeadline time.Duration

	retries atomic.Uint64
}

// maxRetryBackoff caps the exponential growth so a long retry chain never
// escalates into multi-minute stalls of the sink's queue pump.
const maxRetryBackoff = 5 * time.Second

// retryDelay computes the jittered backoff before retry number attempt
// (0-based): the base doubles per attempt, capped at maxRetryBackoff, then
// jitters uniformly within [base/2, base). rnd is rand.Int63n or a
// deterministic stand-in for tests; the returned delay d always satisfies
// base/2 <= d < base.
func retryDelay(attempt int, base time.Duration, rnd func(int64) int64) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rnd(int64(half)))
}

// Retries returns how many retry attempts failed sends have consumed.
func (s *WireSink) Retries() uint64 { return s.retries.Load() }

// Consume implements Sink.
func (s *WireSink) Consume(agent string, now int64, readings []Reading) error {
	// One backing array for the round's samples, each record a cap-1 window
	// of it: Send encodes synchronously and keeps nothing of the batch.
	b := &wire.Batch{Agent: agent, Records: make([]wire.Record, len(readings))}
	samples := make([]metric.Sample, len(readings))
	for i, r := range readings {
		samples[i] = metric.Sample{T: now, V: r.Value}
		b.Records[i] = wire.Record{ID: r.ID, Kind: r.Kind, Unit: r.Unit, Samples: samples[i : i+1 : i+1]}
	}
	if s.SendDeadline > 0 {
		s.Client.SetTimeout(s.SendDeadline)
	}
	base := s.RetryBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = s.Client.Send(b); err == nil || attempt >= s.MaxRetries {
			return err
		}
		s.retries.Add(1)
		time.Sleep(retryDelay(attempt, base, rand.Int63n))
	}
}

// Agent samples a set of sources and fans readings out to sinks.
//
// Sources are scraped concurrently when Workers allows (each source owns a
// disjoint subsystem, so concurrent Collect calls never share mutable
// state), but readings are flattened in source-registration order — so the
// batch every sink sees is byte-identical to a fully serial scrape.
//
// Sinks come in two flavours. AddSink registers a synchronous sink: Tick
// calls Consume inline, and store content and delivery order match the
// pre-pipeline agent exactly. AddSinkQueued registers a sink behind a
// bounded queue with its own pump goroutine (see pipeline.go): Tick
// enqueues the batch and returns without waiting on sink latency, so one
// slow sink cannot stall the scrape cadence or the other sinks. Each pump
// consumes its queue in enqueue order, preserving the deterministic batch
// order per sink. Call Close to drain the queues on shutdown.
type Agent struct {
	Name     string
	Interval time.Duration // wall-clock cadence for Run
	// Workers bounds concurrent source collection: 0 means one worker per
	// logical CPU, 1 forces the serial path.
	Workers int

	mu      sync.Mutex
	sources []Source
	sinks   []*sinkEntry

	rounds   atomic.Uint64
	readings atomic.Uint64
	sinkErrs atomic.Uint64
	rejected atomic.Uint64
}

// sinkEntry pairs a sink with its queue pump (nil for synchronous sinks).
type sinkEntry struct {
	sink      Sink
	pump      *sinkPump
	delivered atomic.Uint64 // synchronous deliveries (pumps count their own)
	offered   atomic.Uint64 // batches Tick presented to this sink
}

// NewAgent creates an agent with the given identity and Run cadence.
func NewAgent(name string, interval time.Duration) *Agent {
	return &Agent{Name: name, Interval: interval}
}

// AddSource registers a source.
func (a *Agent) AddSource(s Source) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sources = append(a.sources, s)
}

// AddSink registers a synchronous sink: Tick delivers each batch inline,
// exactly as the pre-pipeline agent did.
func (a *Agent) AddSink(s Sink) {
	a.AddSinkQueued(s, QueueConfig{})
}

// AddSinkQueued registers a sink behind a bounded queue. A Depth > 0 gives
// the sink its own pump goroutine — Tick enqueues and returns, and the
// policy decides what happens when the queue is full. Depth <= 0 degrades
// to AddSink's synchronous delivery.
func (a *Agent) AddSinkQueued(s Sink, cfg QueueConfig) {
	e := &sinkEntry{sink: s}
	if cfg.Depth > 0 {
		e.pump = newSinkPump(a, s, cfg)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinks = append(a.sinks, e)
}

// deliver hands one batch to a sink and books the outcome: partial
// rejections land in Stats.RejectedSamples, hard failures in
// Stats.SinkErrors. Both the synchronous Tick path and the queue pumps
// funnel through here, so the two error paths always agree.
func (a *Agent) deliver(s Sink, b batchItem) {
	err := s.Consume(b.agent, b.now, b.readings)
	if err == nil {
		return
	}
	var rej *RejectedError
	if errors.As(err, &rej) {
		a.rejected.Add(uint64(rej.N))
		return
	}
	a.sinkErrs.Add(1)
}

// ranges splits [0, n) into up to workers contiguous ranges and calls
// fn(lo, hi) for each, returning when all have; with one worker or one item
// the single range runs on the calling goroutine. It is the scrape's fan-out
// and nothing else's: a real source blocks on I/O (a BMC, a PDU, a socket),
// which is the case where goroutines pay on any core count.
func ranges(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// Tick performs one collection round at virtual time now, returning the
// number of readings gathered.
func (a *Agent) Tick(now int64) int {
	a.mu.Lock()
	sources := append([]Source(nil), a.sources...)
	sinks := append([]*sinkEntry(nil), a.sinks...)
	a.mu.Unlock()

	workers := a.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bySrc := make([][]Reading, len(sources))
	ranges(len(sources), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bySrc[i] = sources[i].Collect(now)
		}
	})
	total := 0
	for _, rs := range bySrc {
		total += len(rs)
	}
	all := make([]Reading, 0, total)
	for _, rs := range bySrc {
		all = append(all, rs...)
	}
	// The readings slice is shared read-only across every sink's queue;
	// sinks never mutate batches, so no per-sink copy is needed.
	item := batchItem{agent: a.Name, now: now, readings: all}
	for _, e := range sinks {
		e.offered.Add(1)
		if e.pump != nil {
			e.pump.enqueue(item)
			continue
		}
		a.deliver(e.sink, item)
		e.delivered.Add(1)
	}
	a.rounds.Add(1)
	a.readings.Add(uint64(len(all)))
	return len(all)
}

// Run ticks on wall clock until the context is cancelled.
func (a *Agent) Run(ctx context.Context) {
	interval := a.Interval
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-ticker.C:
			a.Tick(t.UnixMilli())
		}
	}
}

// Stats is a snapshot of the agent's collection counters.
type Stats struct {
	// Rounds is how many collection rounds have completed.
	Rounds uint64
	// Readings is the total number of readings flattened across rounds.
	Readings uint64
	// SinkErrors counts Consume calls that failed outright.
	SinkErrors uint64
	// RejectedSamples counts samples sinks rejected (RejectedError), e.g.
	// duplicate timestamps at the store.
	RejectedSamples uint64
	// DroppedBatches counts batches dropped by full-queue policies across
	// every queued sink (see SinkStats for the per-sink split).
	DroppedBatches uint64
}

// Stats reports collection activity.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	entries := append([]*sinkEntry(nil), a.sinks...)
	a.mu.Unlock()
	st := Stats{
		Rounds:          a.rounds.Load(),
		Readings:        a.readings.Load(),
		SinkErrors:      a.sinkErrs.Load(),
		RejectedSamples: a.rejected.Load(),
	}
	for _, e := range entries {
		if e.pump != nil {
			st.DroppedBatches += e.pump.dropped.Load()
		}
	}
	return st
}
