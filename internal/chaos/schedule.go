// Package chaos is the deterministic fault-injection campaign harness: a
// seeded schedule of faults is replayed against the real collector → wire →
// store stack, and end-to-end invariants (sample conservation, byte-exact
// crash recovery, planner/model bit-parity, front-door quota/cache
// consistency) are checked when the dust settles.
//
// Everything flows from the seed. Generate(cfg) expands a Config into an
// identical fault timeline on every run, campaigns drive collection on
// virtual time, and a failed campaign prints a one-line repro string
// (Config.Repro) that reconstructs the exact same campaign anywhere.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// FaultKind enumerates the injectable fault classes across the stack.
type FaultKind int

const (
	// FaultNone is the absence of a fault (zero value, never scheduled).
	FaultNone FaultKind = iota

	// SensorDropout makes a source return no readings: a dead IPMI
	// endpoint. Declared loss at the source, not sink loss.
	SensorDropout
	// SensorStuck freezes a source at its last readings: a wedged sensor
	// that keeps reporting stale values at fresh timestamps.
	SensorStuck
	// SensorNoisy multiplies a source's values with gaussian noise drawn
	// from the source's own seeded stream (Param is the noise stddev).
	SensorNoisy

	// SinkSlow makes the faulty downstream sink sleep Param milliseconds
	// per batch, backing up its bounded queue.
	SinkSlow
	// SinkError makes the faulty downstream sink fail every Consume.
	SinkError

	// NetDelay delays every wire write by Param milliseconds.
	NetDelay
	// NetDrop severs the wire connection on every write during the
	// window: a lossy link. The client redials, the sink retries.
	NetDrop
	// NetTruncate writes half of each frame then severs the connection,
	// exercising the server's CRC/torn-frame rejection path.
	NetTruncate
	// NetPartition refuses dials and severs live connections for the
	// window: the aggregation endpoint is unreachable.
	NetPartition

	// StoreCrash hard-kills the durable store mid-campaign (WAL handle
	// dropped, no checkpoint) and recovers it in place. Instantaneous.
	StoreCrash
	// NodeFailure force-fails Param nodes starting at Target in the
	// simulated data center: a rack PDU trip. Instantaneous.
	NodeFailure

	numFaultKinds = int(NodeFailure) // highest kind, for coverage loops
)

// String names the fault kind for schedules and reports.
func (k FaultKind) String() string {
	switch k {
	case SensorDropout:
		return "sensor-dropout"
	case SensorStuck:
		return "sensor-stuck"
	case SensorNoisy:
		return "sensor-noisy"
	case SinkSlow:
		return "sink-slow"
	case SinkError:
		return "sink-error"
	case NetDelay:
		return "net-delay"
	case NetDrop:
		return "net-drop"
	case NetTruncate:
		return "net-truncate"
	case NetPartition:
		return "net-partition"
	case StoreCrash:
		return "store-crash"
	case NodeFailure:
		return "node-failure"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Event is one scheduled fault. Window faults are active during
// [At, At+Dur) of campaign virtual time (milliseconds from campaign
// start); instantaneous faults (StoreCrash, NodeFailure) fire once when
// the campaign clock crosses At and carry Dur 0.
type Event struct {
	At     int64     `json:"at_ms"`
	Dur    int64     `json:"dur_ms"`
	Kind   FaultKind `json:"kind"`
	Target int       `json:"target"`
	Param  float64   `json:"param"`
}

// Config parameterizes a campaign. The seed fully determines the fault
// timeline; the other fields size the stack under test.
type Config struct {
	// Seed drives schedule generation, every faulty source's noise stream
	// and the simulated data center.
	Seed int64
	// Duration is the campaign length in virtual time (one collection
	// tick per second of it).
	Duration time.Duration
	// Nodes sizes the simulated data center for the correlated-failure leg.
	Nodes int
	// Sources is how many faulty telemetry sources feed the agent.
	Sources int
	// Intensity scales how many extra fault events the schedule carries
	// beyond the guaranteed one-per-kind coverage (1.0 = nominal).
	Intensity float64
}

// DefaultConfig returns the campaign the chaos-short gate runs: 30 virtual
// seconds, a 12-node simulated center, 4 sources, nominal intensity.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Duration: 30 * time.Second, Nodes: 12, Sources: 4, Intensity: 1}
}

// Validate rejects configs the campaign driver cannot run.
func (c Config) Validate() error {
	if c.Duration < time.Second {
		return fmt.Errorf("chaos: duration %v below one tick", c.Duration)
	}
	if c.Duration > 24*time.Hour {
		return fmt.Errorf("chaos: duration %v above 24h", c.Duration)
	}
	if c.Nodes < 1 || c.Nodes > 4096 {
		return fmt.Errorf("chaos: nodes %d outside [1, 4096]", c.Nodes)
	}
	if c.Sources < 1 || c.Sources > 1024 {
		return fmt.Errorf("chaos: sources %d outside [1, 1024]", c.Sources)
	}
	if !(c.Intensity > 0 && c.Intensity <= 100) {
		return fmt.Errorf("chaos: intensity %v outside (0, 100]", c.Intensity)
	}
	return nil
}

// Repro renders the config as the one-line repro string a failed campaign
// prints. The string is canonical: ParseRepro(c.Repro()) == c.
func (c Config) Repro() string {
	return fmt.Sprintf("chaos:v1:seed=%d:dur=%d:nodes=%d:sources=%d:intensity=%g",
		c.Seed, c.Duration.Milliseconds(), c.Nodes, c.Sources, c.Intensity)
}

// ParseRepro parses a repro string back into the identical Config, so a
// failure reported anywhere replays bit-for-bit here.
func ParseRepro(s string) (Config, error) {
	var c Config
	parts := strings.Split(s, ":")
	if len(parts) != 7 || parts[0] != "chaos" || parts[1] != "v1" {
		return c, fmt.Errorf("chaos: repro %q is not chaos:v1 with 5 fields", s)
	}
	for i, want := range []string{"seed", "dur", "nodes", "sources", "intensity"} {
		kv := strings.SplitN(parts[i+2], "=", 2)
		if len(kv) != 2 || kv[0] != want {
			return Config{}, fmt.Errorf("chaos: repro field %d: want %s=..., got %q", i, want, parts[i+2])
		}
		var err error
		switch want {
		case "seed":
			c.Seed, err = strconv.ParseInt(kv[1], 10, 64)
		case "dur":
			var ms int64
			ms, err = strconv.ParseInt(kv[1], 10, 64)
			c.Duration = time.Duration(ms) * time.Millisecond
		case "nodes":
			c.Nodes, err = strconv.Atoi(kv[1])
		case "sources":
			c.Sources, err = strconv.Atoi(kv[1])
		case "intensity":
			c.Intensity, err = strconv.ParseFloat(kv[1], 64)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: repro field %s: %v", want, err)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Schedule is the expanded fault timeline, sorted by activation time.
type Schedule struct {
	Events []Event
}

// Generate expands a config into its fault timeline. The same config
// always yields the same schedule: the event count, kinds, windows and
// parameters are all drawn from one seeded stream in a fixed order. Every
// fault kind is represented at least once so a default campaign exercises
// the whole taxonomy; Intensity scales the extra events on top.
func Generate(cfg Config) Schedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	durMs := cfg.Duration.Milliseconds()
	extra := int(cfg.Intensity * float64(durMs) / 8000)

	var events []Event
	emit := func(kind FaultKind) {
		ev := Event{Kind: kind, At: 1 + rng.Int63n(durMs*3/4)}
		switch kind {
		case SensorDropout, SensorStuck, SensorNoisy:
			ev.Target = rng.Intn(cfg.Sources)
			ev.Dur = windowDur(rng, durMs)
			if kind == SensorNoisy {
				ev.Param = 0.05 + 0.2*rng.Float64()
			}
		case SinkSlow, SinkError:
			ev.Dur = windowDur(rng, durMs)
			if kind == SinkSlow {
				ev.Param = float64(1 + rng.Intn(2)) // ms per batch
			}
		case NetDelay, NetDrop, NetTruncate, NetPartition:
			ev.Dur = windowDur(rng, durMs)
			if kind == NetDelay {
				ev.Param = float64(1 + rng.Intn(2)) // ms per write
			}
		case StoreCrash:
			// Instantaneous: Dur stays 0.
		case NodeFailure:
			ev.Target = rng.Intn(cfg.Nodes)
			ev.Param = float64(1 + rng.Intn(max(1, cfg.Nodes/4)))
		}
		events = append(events, ev)
	}

	// Guaranteed coverage: one event of every kind, in kind order so the
	// rng consumption is deterministic.
	for k := 1; k <= numFaultKinds; k++ {
		emit(FaultKind(k))
	}
	// Intensity-scaled extras.
	for i := 0; i < extra; i++ {
		emit(FaultKind(1 + rng.Intn(numFaultKinds)))
	}

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
	return Schedule{Events: events}
}

// windowDur draws a fault window between 5% and ~21% of the campaign.
func windowDur(rng *rand.Rand, durMs int64) int64 {
	lo := durMs / 20
	if lo < 1 {
		lo = 1
	}
	return lo + rng.Int63n(durMs/6+1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
