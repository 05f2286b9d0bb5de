package chaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/metric"
)

// FaultySource wraps a deterministic synthetic telemetry source with the
// sensor fault modes (dropout, stuck, noisy). The campaign driver flips
// modes between ticks from the same goroutine that calls Tick, so the
// fields need no locking; the noise stream is the source's own seeded RNG,
// so the number of draws — and therefore every subsequent value — depends
// only on the schedule, never on wall-clock timing.
type FaultySource struct {
	name   string
	idx    int
	rng    *rand.Rand
	labels metric.Labels

	mode  FaultKind // FaultNone, SensorDropout, SensorStuck or SensorNoisy
	noise float64
	last  []collector.Reading

	rounds     uint64 // Collect calls that produced readings
	suppressed uint64 // Collect calls swallowed by dropout
}

// NewFaultySource builds source idx of a campaign seeded from seed.
func NewFaultySource(idx int, seed int64) *FaultySource {
	name := fmt.Sprintf("c%02d", idx)
	return &FaultySource{
		name:   "chaos/" + name,
		idx:    idx,
		rng:    rand.New(rand.NewSource(seed ^ int64(idx)*0x9E3779B9)),
		labels: metric.NewLabels("node", name, "rack", "chaos"),
	}
}

// Name implements collector.Source.
func (s *FaultySource) Name() string { return s.name }

// SetMode applies a sensor fault (FaultNone clears it). Param is the noise
// stddev for SensorNoisy.
func (s *FaultySource) SetMode(mode FaultKind, param float64) {
	s.mode = mode
	s.noise = param
}

// Suppressed returns how many collection rounds dropout swallowed: the
// declared source-side loss the conservation checker nets out.
func (s *FaultySource) Suppressed() uint64 { return s.suppressed }

// Collect implements collector.Source with the active fault applied.
func (s *FaultySource) Collect(now int64) []collector.Reading {
	switch s.mode {
	case SensorDropout:
		s.suppressed++
		return nil
	case SensorStuck:
		if s.last != nil {
			s.rounds++
			return s.last // stale values, fresh timestamps at the sink
		}
	}
	// Values are quantized to multiples of 1/8 with small magnitude, so
	// every sum either query path can form is exact in float64: planned
	// answers, which group sums by rollup window, then match the reference
	// model's left-to-right ones bit for bit.
	phase := float64(s.idx)
	readings := []collector.Reading{
		{ID: metric.ID{Name: "chaos_power_watts", Labels: s.labels}, Kind: metric.Gauge, Unit: metric.UnitWatt,
			Value: dyadic(100 + 10*math.Sin(float64(now)/7000+phase))},
		{ID: metric.ID{Name: "chaos_temp_celsius", Labels: s.labels}, Kind: metric.Gauge, Unit: metric.UnitCelsius,
			Value: dyadic(40 + 5*math.Sin(float64(now)/11000+phase))},
		{ID: metric.ID{Name: "chaos_util_percent", Labels: s.labels}, Kind: metric.Gauge, Unit: metric.UnitPercent,
			Value: float64((now/1000 + int64(s.idx)) % 97)},
	}
	if s.mode == SensorNoisy {
		for i := range readings {
			readings[i].Value = dyadic(readings[i].Value * (1 + s.noise*s.rng.NormFloat64()))
		}
	}
	s.last = readings
	s.rounds++
	return readings
}

// dyadic quantizes v to a multiple of 1/8, keeping float64 arithmetic over
// campaign-sized sums exact.
func dyadic(v float64) float64 { return math.Round(v*8) / 8 }

// errSinkFault is what a faulted sink returns: a hard Consume failure the
// agent books under Stats.SinkErrors.
var errSinkFault = errors.New("chaos: sink fault injected")

// FaultySink is the erroring/slow downstream consumer. It runs behind a
// bounded queue, so its pump goroutine reads the fault state concurrently
// with the driver flipping it — hence the mutex.
type FaultySink struct {
	mu      sync.Mutex
	delay   time.Duration
	failing bool

	consumed uint64
	failed   uint64
}

// Set applies the sink fault state for the current window.
func (s *FaultySink) Set(delay time.Duration, failing bool) {
	s.mu.Lock()
	s.delay = delay
	s.failing = failing
	s.mu.Unlock()
}

// Counts reports delivered and failed batches.
func (s *FaultySink) Counts() (consumed, failed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.consumed, s.failed
}

// Consume implements collector.Sink.
func (s *FaultySink) Consume(_ string, _ int64, _ []collector.Reading) error {
	s.mu.Lock()
	delay, failing := s.delay, s.failing
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if failing {
		s.failed++
		return errSinkFault
	}
	s.consumed++
	return nil
}

// countingSink wraps a sink and ledgers outcomes per batch, giving the
// conservation checker the sink-side half of the wire accounting.
type countingSink struct {
	inner collector.Sink

	mu        sync.Mutex
	ok        uint64
	fail      uint64
	okSamples uint64
}

// Consume implements collector.Sink.
func (c *countingSink) Consume(agent string, now int64, readings []collector.Reading) error {
	err := c.inner.Consume(agent, now, readings)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.fail++
		return err
	}
	c.ok++
	c.okSamples += uint64(len(readings))
	return nil
}

// counts reports (successful batches, failed batches, samples in
// successful batches).
func (c *countingSink) counts() (ok, fail, okSamples uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ok, c.fail, c.okSamples
}
