// Package feed turns a workload's generated inputs into collection rounds
// shipped through real collector agents and a wire client. Both benchmark
// binaries drive it; it compiles against only the narrow slice of the
// program the scoreboard is allowed to know — collector.{Agent, Source,
// Reading, Sink, WireSink}, metric.{NewID, NewLabels}, wire.Client and
// simulation.{DefaultConfig, New} with DataCenter.Agent — so the refactors
// ROADMAP has queued do not break it.
package feed

import (
	"fmt"

	"repro/bench/gen"
	"repro/internal/collector"
	"repro/internal/metric"
	"repro/internal/simulation"
	"repro/internal/wire"
)

// Feeder produces one collection round per Tick, ships it through its wire
// sinks, and can say afterwards what a window of a series must contain.
type Feeder interface {
	// Attach points the wire sinks at a (new) connection.
	Attach(c *wire.Client)
	// Tick produces and ships the next round and returns its virtual time.
	Tick() int64
	Ticks() int                         // rounds produced so far
	Sent() int                          // samples handed to the sinks so far
	Batches() int                       // wire batches sent so far
	Failures() (sinkErrs, rejected int) // the agents' own counters
	Clock() gen.Clock
	// NumSeries and Key are valid once a round has been produced.
	NumSeries() int
	Key(series int) string
	Expect(c gen.Check) gen.Expect
}

// Wrap lets the traced run interpose on the sink boundary; nil wraps
// nothing.
type Wrap func(collector.Sink) collector.Sink

func (w Wrap) apply(s collector.Sink) collector.Sink {
	if w == nil {
		return s
	}
	return w(s)
}

// New builds the workload's feeder.
func New(seed int64, wl gen.Workload, wrap Wrap) Feeder {
	if wl.SimNodes > 0 {
		return NewSim(seed, wl, wrap)
	}
	return NewSynth(seed, wl, wrap)
}

// source exposes one generated agent's sensors as a collector.Source.
type source struct {
	name     string
	readings []collector.Reading
	vals     []float64 // this agent's slice of the fleet's current tick
}

func (s *source) Name() string { return s.name }

func (s *source) Collect(int64) []collector.Reading {
	for i := range s.readings {
		s.readings[i].Value = s.vals[i]
	}
	return s.readings
}

// Synth is a generated fleet behind real collector agents: one agent, one
// source and one wire sink per generated agent, all sinks sharing one
// connection, one wire batch of Sensors samples per agent per round.
type Synth struct {
	Gen    *gen.Fleet
	Agents []*collector.Agent

	keys  []string
	sinks []*collector.WireSink
	vals  []float64
	sent  int
}

// NewSynth builds the fleet for a synthetic workload.
func NewSynth(seed int64, wl gen.Workload, wrap Wrap) *Synth {
	g := gen.NewFleet(seed, wl.Agents, wl.Sensors)
	f := &Synth{Gen: g, vals: make([]float64, len(g.Series)), keys: make([]string, len(g.Series))}
	for a := 0; a < g.Agents; a++ {
		lo, hi := a*g.Sensors, (a+1)*g.Sensors
		src := &source{name: fmt.Sprintf("a%04d", a), vals: f.vals[lo:hi]}
		for i := lo; i < hi; i++ {
			s := g.Series[i]
			id := metric.NewID(s.Name, metric.NewLabels("node", s.Node, "rack", s.Rack))
			f.keys[i] = id.Key()
			kind := metric.Gauge
			if s.Kind == gen.Counter {
				kind = metric.Counter
			}
			src.readings = append(src.readings, collector.Reading{ID: id, Kind: kind, Unit: metric.Unit(s.Unit)})
		}
		ag := &collector.Agent{Name: src.name}
		sink := &collector.WireSink{}
		ag.AddSource(src)
		ag.AddSink(wrap.apply(sink))
		f.Agents = append(f.Agents, ag)
		f.sinks = append(f.sinks, sink)
	}
	return f
}

func (f *Synth) Attach(c *wire.Client) {
	for _, s := range f.sinks {
		s.Client = c
	}
}

// Next advances the generator one round without scraping; the traced run
// times it apart from the agents.
func (f *Synth) Next() int64 { return f.Gen.Next(f.vals) }

// Scrape ticks one agent at time t and books the samples it gathered.
func (f *Synth) Scrape(agent int, t int64) { f.sent += f.Agents[agent].Tick(t) }

func (f *Synth) Tick() int64 {
	t := f.Next()
	for a := range f.Agents {
		f.Scrape(a, t)
	}
	return t
}

func (f *Synth) Ticks() int                    { return f.Gen.Ticks() }
func (f *Synth) Sent() int                     { return f.sent }
func (f *Synth) Batches() int                  { return f.Gen.Ticks() * len(f.Agents) }
func (f *Synth) Clock() gen.Clock              { return gen.SynthClock }
func (f *Synth) NumSeries() int                { return len(f.keys) }
func (f *Synth) Key(i int) string              { return f.keys[i] }
func (f *Synth) Expect(c gen.Check) gen.Expect { return f.Gen.Expect(c) }

func (f *Synth) Failures() (sinkErrs, rejected int) {
	for _, ag := range f.Agents {
		st := ag.Stats()
		sinkErrs += int(st.SinkErrors)
		rejected += int(st.RejectedSamples)
	}
	return
}

// SimClock: the centre starts at virtual 0 and collects every 60 s, so
// round k is stamped 60 s * (k+1).
var SimClock = gen.Clock{T0: 60_000, StepMs: 60_000}

// Sim is the simulated data centre: simulation.New builds its agent with
// every node, facility, network and scheduler source attached, and the
// benchmark adds a WireSink so the centre's real series — realistic names
// and label sets — ship to odad.
type Sim struct {
	DC   *simulation.DataCenter
	Rec  *Recorder
	sink *collector.WireSink
}

// NewSim builds the centre for a simulated workload.
func NewSim(seed int64, wl gen.Workload, wrap Wrap) *Sim {
	cfg := simulation.DefaultConfig(seed)
	cfg.Nodes = wl.SimNodes
	cfg.Workload.MaxNodes = wl.SimNodes / 2
	s := &Sim{DC: simulation.New(cfg), sink: &collector.WireSink{}, Rec: &Recorder{hist: map[string][]float64{}}}
	s.DC.Agent.AddSink(wrap.apply(s.sink))
	s.DC.Agent.AddSink(s.Rec)
	return s
}

func (s *Sim) Attach(c *wire.Client) { s.sink.Client = c }

func (s *Sim) Tick() int64 {
	s.DC.RunFor(float64(SimClock.StepMs) / 1000)
	return s.Rec.lastT
}

func (s *Sim) Ticks() int       { return s.Rec.rounds }
func (s *Sim) Sent() int        { return s.Rec.samples }
func (s *Sim) Batches() int     { return s.Rec.rounds }
func (s *Sim) Clock() gen.Clock { return SimClock }
func (s *Sim) NumSeries() int   { return len(s.Rec.keys) }
func (s *Sim) Key(i int) string { return s.Rec.keys[i] }

func (s *Sim) Failures() (sinkErrs, rejected int) {
	st := s.DC.Agent.Stats()
	return int(st.SinkErrors), int(st.RejectedSamples)
}

func (s *Sim) Expect(c gen.Check) gen.Expect {
	h := s.Rec.hist[s.Rec.keys[c.Series]]
	var e gen.Expect
	for k := c.FromTick; k < c.ToTick && k < len(h); k++ {
		e.Add(h[k])
	}
	return e
}

// Recorder is a collector.Sink that remembers what the centre emitted, so
// the benchmark can recompute any window itself. It relies on the centre's
// series set being fixed at construction — one value per series per round
// — and reports a series that appears later as an error, which the agent
// counts as a sink error and the run as a failure.
type Recorder struct {
	keys    []string
	hist    map[string][]float64
	rounds  int
	samples int
	lastT   int64
}

func (r *Recorder) Consume(_ string, now int64, readings []collector.Reading) error {
	var late error
	for i := range readings {
		k := readings[i].ID.Key()
		if _, ok := r.hist[k]; !ok {
			if r.rounds > 0 {
				late = fmt.Errorf("series %s first seen in round %d", k, r.rounds)
				continue
			}
			r.keys = append(r.keys, k)
		}
		r.hist[k] = append(r.hist[k], readings[i].Value)
	}
	if late != nil {
		return late
	}
	r.rounds++
	r.samples += len(readings)
	r.lastT = now
	return nil
}
