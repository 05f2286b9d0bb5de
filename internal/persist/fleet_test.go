package persist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// The fleet WAL: what the benchmark's ingest_interval workload leaves on
// disk, scaled down in time only — 128 agents x 32 sensors, one 32-sample
// opAppendCols record per agent per tick at a 10 s cadence (a run of 32
// consecutive WAL refs at one timestamp, so the ref and time columns are
// elided), each agent's series defined just before its first record. 384
// ticks is 64 minutes, so every series seals 63 one-minute windows and one
// hourly window and rolls its raw chunk three times. fleetWALAt writes the
// same fleet at another cadence: at fleetStep60s, the cadence of the
// simulated centre's sensors, every one-minute window holds one sample.
const (
	fleetAgents  = 128
	fleetSensors = 32
	fleetTicks   = 384
	fleetStepMs  = 10_000
	fleetStep60s = 60_000
	fleetT0      = 472222 * 3600 * 1000 // hour-aligned, like bench/gen's clock
)

// fleetValues is the value stream of the fleet: 85 % walks quantised to one
// decimal, 10 % monotone counters, 5 % constants, all from one seeded rng.
type fleetValues struct {
	rng    *rand.Rand
	value  []float64
	spread []float64
	kind   []uint8 // 0 walk, 1 counter, 2 constant
}

func newFleetValues(n int) *fleetValues {
	f := &fleetValues{
		rng:    rand.New(rand.NewSource(1)),
		value:  make([]float64, n),
		spread: make([]float64, n),
		kind:   make([]uint8, n),
	}
	bases := [...]struct{ base, step float64 }{{300, 4}, {55, 0.6}, {50, 3}, {6000, 40}, {6e10, 1e8}, {1e8, 5e6}, {24, 0.2}, {180, 6}}
	for i := range f.value {
		b := bases[i%len(bases)]
		switch p := f.rng.Float64(); {
		case p < 0.10:
			f.kind[i] = 1
		case p < 0.15:
			f.kind[i] = 2
		}
		f.value[i] = quant(b.base * (0.5 + f.rng.Float64()))
		f.spread[i] = b.step
	}
	return f
}

func quant(v float64) float64 { return math.Round(v*10) / 10 }

// next advances every stream one tick, in series order.
func (f *fleetValues) next() {
	for i := range f.value {
		switch f.kind[i] {
		case 0:
			f.value[i] = quant(f.value[i] + (f.rng.Float64()-0.5)*2*f.spread[i])
		case 1:
			f.value[i] = quant(f.value[i] + f.rng.Float64()*f.spread[i])
		}
	}
}

func fleetID(agent, sensor int) metric.ID {
	return metric.ID{
		Name:   fmt.Sprintf("sensor_%02d", sensor),
		Labels: metric.NewLabels("node", fmt.Sprintf("n%04d", agent), "rack", fmt.Sprintf("r%02d", agent/16)),
	}
}

// fleetLog is the fleet WAL as recovery reads it: whole segment images.
type fleetLog struct {
	segments [][]byte
	defines  [][]byte // the opDefine payloads alone, in WAL-ref order
	samples  int
}

var (
	fleetMu   sync.Mutex
	fleetLogs = map[int64]*fleetLog{}
)

// fleetWAL is the fleet WAL at its 10 s cadence.
func fleetWAL() *fleetLog { return fleetWALAt(fleetStepMs) }

// fleetWALAt builds the fleet WAL at a cadence of step ms, once per test
// binary.
func fleetWALAt(step int64) *fleetLog {
	fleetMu.Lock()
	defer fleetMu.Unlock()
	if l := fleetLogs[step]; l != nil {
		return l
	}
	var log fleetLog
	var payloads [][]byte
	size := len(segMagic)
	cut := func() {
		log.segments = append(log.segments, frameSegment(payloads...))
		payloads, size = payloads[:0], len(segMagic)
	}
	add := func(p []byte) {
		if size+recordHeaderLen+len(p) > DefaultSegmentSize {
			cut()
		}
		payloads = append(payloads, p)
		size += recordHeaderLen + len(p)
	}
	vals := newFleetValues(fleetAgents * fleetSensors)
	recs := make([]refSample, fleetSensors)
	for tick := 0; tick < fleetTicks; tick++ {
		vals.next()
		t := fleetT0 + int64(tick)*step
		for a := 0; a < fleetAgents; a++ {
			for s := 0; s < fleetSensors; s++ {
				ref := uint64(a*fleetSensors + s + 1)
				if tick == 0 {
					def := encodeDefine(nil, ref, fleetID(a, s), metric.Gauge, metric.UnitWatt)
					log.defines = append(log.defines, def)
					add(def)
				}
				recs[s] = refSample{ref: ref, t: t, v: vals.value[ref-1]}
			}
			add(appendColsPayload(recs))
			log.samples += len(recs)
		}
	}
	cut()
	fleetLogs[step] = &log
	return &log
}

func newFleetStore() *timeseries.Store {
	return timeseries.NewStore(0, timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h))
}

// replayFleet replays the fleet WAL into a fresh fleet store.
func replayFleet(tb testing.TB) *timeseries.Store {
	tb.Helper()
	store := newFleetStore()
	app := NewApplier(store)
	for _, seg := range fleetWAL().segments {
		if res := mustReplay(tb, seg, app.apply); res.torn {
			tb.Fatal("fleet segment replayed torn")
		}
	}
	app.Close()
	return store
}
