// Package gen is the seeded input generator both benchmark binaries share:
// seed -> *rand.Rand -> fleet shape, per-series value streams, virtual
// timestamps, the query schedule and the correctness windows. It imports
// nothing from the program under test, so the same seed yields the same
// bytes on every commit and odad only ever sees generated inputs.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
)

// Clock maps collection rounds to virtual time: round k is stamped
// T0 + k*StepMs (Unix millis).
type Clock struct {
	T0     int64
	StepMs int64
}

// TimeOf returns the virtual timestamp of tick k.
func (c Clock) TimeOf(k int) int64 { return c.T0 + int64(k)*c.StepMs }

// SynthClock is the synthetic fleets' clock: a 10 s cadence from an
// hour-aligned origin, so the 1m and 1h rollup tiers seal on tick
// boundaries.
var SynthClock = Clock{T0: 472222 * 3600 * 1000, StepMs: 10_000}

const (
	hourMs = 3600 * 1000

	// HotSet is how many distinct queries the repeated 30 % of the
	// schedule draws from; it fits odad's default 1024-entry result cache.
	HotSet = 256
	// Checks is how many (series, window) pairs each workload verifies.
	Checks = 64
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Kind of value stream a series carries. Compressibility is an input
// property the store's cost depends on, so the mix is fixed by contract:
// 85 % quantised random walks, 10 % monotone counters, 5 % constants.
type Kind uint8

const (
	Walk Kind = iota
	Counter
	Const
)

// Series is one generated sensor.
type Series struct {
	Name   string // metric name
	Node   string // label node=
	Rack   string // label rack=
	Kind   Kind
	Unit   string
	value  float64
	spread float64
}

// Fleet is a synthetic sensor fleet plus the state of its value streams.
// Next advances every stream by one tick in series order from one
// *rand.Rand, so the stream is a pure function of (seed, shape).
type Fleet struct {
	Agents  int
	Sensors int
	Series  []Series
	rng     *rand.Rand
	tick    int // ticks generated so far

	// hist is every value generated so far, tick-major, so the benchmark
	// can recompute any window without asking the program under test.
	hist []float64
}

var sensorKinds = []struct {
	name, unit string
	base, step float64
}{
	{"node_power_watts", "W", 300, 4},
	{"node_temp_celsius", "degC", 55, 0.6},
	{"cpu_util_percent", "%", 50, 3},
	{"fan_speed_rpm", "rpm", 6000, 40},
	{"mem_used_bytes", "B", 6e10, 1e8},
	{"net_rx_bytes_per_s", "B/s", 1e8, 5e6},
	{"inlet_temp_celsius", "degC", 24, 0.2},
	{"gpu_power_watts", "W", 180, 6},
}

// NewFleet builds agents x sensors series. The series' identities depend
// only on the shape; which ones are counters or constants, their starting
// points and every later value depend on the seed.
func NewFleet(seed int64, agents, sensors int) *Fleet {
	f := &Fleet{Agents: agents, Sensors: sensors, rng: newRand(seed)}
	f.Series = make([]Series, 0, agents*sensors)
	for a := 0; a < agents; a++ {
		for s := 0; s < sensors; s++ {
			k := sensorKinds[s%len(sensorKinds)]
			sr := Series{
				Name: fmt.Sprintf("%s_%02d", k.name, s/len(sensorKinds)),
				Node: fmt.Sprintf("n%04d", a),
				Rack: fmt.Sprintf("r%02d", a/16),
				Unit: k.unit,
			}
			switch p := f.rng.Float64(); {
			case p < 0.10:
				sr.Kind = Counter
			case p < 0.15:
				sr.Kind = Const
			}
			sr.value = quant(k.base * (0.5 + f.rng.Float64()))
			sr.spread = k.step
			f.Series = append(f.Series, sr)
		}
	}
	return f
}

// quant rounds to one decimal: real sensors report a few significant
// digits, and the store's XOR compression depends on it.
func quant(v float64) float64 { return math.Round(v*10) / 10 }

// Ticks returns how many ticks Next has produced.
func (f *Fleet) Ticks() int { return f.tick }

// Next advances every stream one tick and writes the values, in series
// order, into dst (len(dst) == len(f.Series)). It returns the tick's
// virtual timestamp.
func (f *Fleet) Next(dst []float64) int64 {
	for i := range f.Series {
		s := &f.Series[i]
		switch s.Kind {
		case Walk:
			s.value = quant(s.value + (f.rng.Float64()-0.5)*2*s.spread)
		case Counter:
			s.value = quant(s.value + f.rng.Float64()*s.spread)
		}
		dst[i] = s.value
	}
	f.hist = append(f.hist, dst...)
	t := SynthClock.TimeOf(f.tick)
	f.tick++
	return t
}

// Check is one correctness window: every sample of Series with a tick in
// [FromTick, ToTick).
type Check struct {
	Series   int
	FromTick int
	ToTick   int
}

// Checks draws the (series, window) pairs a run verifies, over a run of
// totalTicks ticks. Windows are between 1 and 240 ticks long and cover
// the whole run, so samples from every phase are read back.
func NewChecks(seed int64, nseries, totalTicks int) []Check {
	rng := newRand(seed ^ 0x636865636b) // "check"
	out := make([]Check, Checks)
	for i := range out {
		n := 1 + rng.Intn(240)
		if n > totalTicks {
			n = totalTicks
		}
		from := rng.Intn(totalTicks - n + 1)
		out[i] = Check{Series: rng.Intn(nseries), FromTick: from, ToTick: from + n}
	}
	return out
}

// Expect is the generator's own answer for a check window.
type Expect struct {
	Count    int
	Min, Max float64
	Sum      float64
}

// Add folds one value into the expectation.
func (e *Expect) Add(v float64) {
	if e.Count == 0 {
		e.Min, e.Max = v, v
	}
	e.Count++
	e.Sum += v
	e.Min = math.Min(e.Min, v)
	e.Max = math.Max(e.Max, v)
}

// Expect recomputes a check from the generated history. Ticks not yet
// generated are simply absent, as they are from the store.
func (f *Fleet) Expect(c Check) Expect {
	var e Expect
	n := len(f.Series)
	for k := c.FromTick; k < c.ToTick && k < f.tick; k++ {
		e.Add(f.hist[k*n+c.Series])
	}
	return e
}

// Class of a query.
type Class uint8

const (
	// Point is /query fn=mean over the last 10 virtual minutes of a series
	// (raw tail or the 1m tier).
	Point Class = iota
	// Range is /query_range fn=mean step=1h over up to 48 h (planned, 1h
	// tier).
	Range
	// Raw is /query_range fn=p95 step=5m over up to 6 h (p95 does not fold
	// from rollups, so it decodes raw chunks).
	Raw
	NumClasses
)

func (c Class) String() string { return [...]string{"point", "range", "raw"}[c] }

// Query is one scheduled request. From/To/Step are virtual millis; Step is
// 0 for Point.
type Query struct {
	Class  Class
	Series int
	From   int64
	To     int64
	Step   int64
	Fn     string
}

// QueryPath renders a request for odad's front door: /query when step is 0,
// /query_range otherwise.
func QueryPath(key string, from, to, step int64, fn string) string {
	v := url.Values{"series": {key}, "from": {strconv.FormatInt(from, 10)}, "to": {strconv.FormatInt(to, 10)}, "fn": {fn}}
	if step > 0 {
		v.Set("step", strconv.FormatInt(step, 10))
		return "/query_range?" + v.Encode()
	}
	return "/query?" + v.Encode()
}

// Path renders the query against the series' store key.
func (q Query) Path(key string) string { return QueryPath(key, q.From, q.To, q.Step, q.Fn) }

// Mix is the share of each class in a schedule, in Class order.
type Mix [NumClasses]float64

// NewQueries draws n queries over series [0,nseries) whose windows end at
// or before endTick (exclusive upper tick of the data already acked when
// the schedule starts), so answers do not depend on concurrent writes.
// 30 % of the schedule repeats one of HotSet queries; the rest are
// distinct (series, window) pairs, each a different cache key.
func NewQueries(seed int64, clk Clock, n, nseries, endTick int, mix Mix) []Query {
	rng := newRand(seed ^ 0x7175657279) // "query"
	seen := map[Query]bool{}
	fresh := func() Query {
		var q Query
		for try := 0; ; try++ {
			q = drawQuery(rng, clk, nseries, endTick, mix)
			// A tiny archive has few distinct aligned windows; after a
			// few collisions accept the repeat rather than spin.
			if !seen[q] || try == 8 {
				seen[q] = true
				return q
			}
		}
	}
	hot := make([]Query, HotSet)
	for i := range hot {
		hot[i] = fresh()
	}
	out := make([]Query, n)
	for i := range out {
		switch {
		case i < int(NumClasses) && mix[i] > 0:
			// One of each class up front, so that even a schedule of a
			// handful of queries (the smoke runs) times every class.
			for out[i] = fresh(); out[i].Class != Class(i); out[i] = fresh() {
			}
		case rng.Float64() < 0.30:
			out[i] = hot[rng.Intn(HotSet)]
		default:
			out[i] = fresh()
		}
	}
	return out
}

func drawQuery(rng *rand.Rand, clk Clock, nseries, endTick int, mix Mix) Query {
	q := Query{Series: rng.Intn(nseries)}
	p := rng.Float64()
	switch {
	case p < mix[Point]:
		q.Class = Point
	case p < mix[Point]+mix[Range]:
		q.Class = Range
	default:
		q.Class = Raw
	}
	T0, StepMs := clk.T0, clk.StepMs
	end := clk.TimeOf(endTick)
	avail := end - T0
	switch q.Class {
	case Point:
		// Any of the last 360 ticks may end the window.
		back := int64(rng.Intn(360)) * StepMs
		if back > avail-StepMs {
			back = 0
		}
		q.To = end - back
		q.From = max(q.To-600_000, T0)
		q.Fn = "mean"
	case Range:
		// Whole hours so the planner can prove the 1h tier exact; the end
		// hour and the span vary to make distinct keys.
		firstHour := (T0 + hourMs - 1) / hourMs
		endHour := max(end/hourMs-int64(rng.Intn(4)), firstHour+1)
		span := min(48-int64(rng.Intn(4)), endHour-firstHour)
		q.To = endHour * hourMs
		q.From = q.To - span*hourMs
		q.Step = hourMs
		q.Fn = "mean"
	case Raw:
		back := int64(rng.Intn(72)) * 300_000
		if back > avail-300_000 {
			back = 0
		}
		q.To = end - back
		q.From = max(q.To-6*hourMs, T0)
		q.Step = 300_000
		q.Fn = "p95"
	}
	return q
}

// ProbeSeries draws the series each tick's visibility probe polls.
func ProbeSeries(seed int64, nticks, nseries int) []int {
	rng := newRand(seed ^ 0x70726f6265) // "probe"
	out := make([]int, nticks)
	for i := range out {
		out[i] = rng.Intn(nseries)
	}
	return out
}
