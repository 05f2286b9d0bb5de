package main

import (
	"repro/bench/feed"
	"repro/bench/gen"
	"repro/internal/collector"
	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// round is one agent's scrape: what one wire batch is made from.
type round struct {
	agent    string
	t        int64
	readings []collector.Reading
}

// capture is a collector.Sink that keeps every round it is handed, so the
// layer-only replays see exactly the rounds the traced pipeline shipped.
// An agent's series identities do not change between rounds, so it keeps
// them once and only the values per round.
type capture struct {
	agents    map[string]int
	templates [][]collector.Reading
	rounds    []capturedRound
	nsamples  int
}

type capturedRound struct {
	agent int
	t     int64
	vals  []float64
}

func newCapture() *capture { return &capture{agents: map[string]int{}} }

func (c *capture) Consume(agent string, now int64, readings []collector.Reading) error {
	a, ok := c.agents[agent]
	if !ok {
		a = len(c.templates)
		c.agents[agent] = a
		c.templates = append(c.templates, append([]collector.Reading(nil), readings...))
	}
	vals := make([]float64, len(readings))
	for i := range readings {
		vals[i] = readings[i].Value
	}
	c.rounds = append(c.rounds, capturedRound{agent: a, t: now, vals: vals})
	c.nsamples += len(readings)
	return nil
}

// each materialises the rounds in order, at most limit of them (0 = all).
// The round handed to fn is valid until fn returns.
func (c *capture) each(limit int, fn func(r round)) {
	names := make([]string, len(c.templates))
	for name, a := range c.agents {
		names[a] = name
	}
	var scratch []collector.Reading
	for i, cr := range c.rounds {
		if limit > 0 && i >= limit {
			return
		}
		scratch = append(scratch[:0], c.templates[cr.agent]...)
		for j := range cr.vals {
			scratch[j].Value = cr.vals[j]
		}
		fn(round{agent: names[cr.agent], t: cr.t, readings: scratch})
	}
}

// entries renders a round the way odad's ingest handler does.
func (r round) entries(dst []timeseries.BatchEntry) []timeseries.BatchEntry {
	dst = dst[:0]
	for _, rd := range r.readings {
		dst = append(dst, timeseries.BatchEntry{ID: rd.ID, Kind: rd.Kind, Unit: rd.Unit, T: r.t, V: rd.Value})
	}
	return dst
}

// batch renders a round the way collector.WireSink does.
func (r round) batch() *wire.Batch {
	b := &wire.Batch{Agent: r.agent, Records: make([]wire.Record, 0, len(r.readings))}
	for _, rd := range r.readings {
		b.Records = append(b.Records, wire.Record{ID: rd.ID, Kind: rd.Kind, Unit: rd.Unit, Samples: []metric.Sample{{T: r.t, V: rd.Value}}})
	}
	return b
}

// traceTicks is how many rounds of the workload the traced run replays: a
// quarter of what the end-to-end run ingests.
func traceTicks(wl gen.Workload) int {
	return max(8, (wl.PreloadTicks+wl.IngestTicks+wl.MixedTicks())/4)
}

// seriesKeys lists the store keys of the feeder's series.
func seriesKeys(f feed.Feeder) []string {
	keys := make([]string, f.NumSeries())
	for i := range keys {
		keys[i] = f.Key(i)
	}
	return keys
}
