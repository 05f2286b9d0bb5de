// Package metric defines the telemetry data model shared by every layer of
// the ODA stack: samples, labelled series, units and metric kinds.
//
// The model deliberately mirrors what production HPC monitoring fabrics
// (LDMS, DCDB, Examon) ship on the wire: a metric name, a small set of
// identifying labels (node, rack, component), and a stream of
// (timestamp, float64) samples. Timestamps are Unix milliseconds.
package metric

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind describes how a metric's value evolves over time.
type Kind uint8

const (
	// Gauge metrics move freely up and down (temperature, utilization).
	Gauge Kind = iota
	// Counter metrics are monotonically non-decreasing (energy, packets).
	Counter
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Unit is the physical unit of a metric value.
type Unit string

// Units used across the virtual data center and its analytics.
const (
	UnitNone       Unit = ""
	UnitWatt       Unit = "W"
	UnitJoule      Unit = "J"
	UnitCelsius    Unit = "degC"
	UnitHertz      Unit = "Hz"
	UnitPercent    Unit = "%"
	UnitBytes      Unit = "B"
	UnitBytesPerS  Unit = "B/s"
	UnitSeconds    Unit = "s"
	UnitRPM        Unit = "rpm"
	UnitLitersPerS Unit = "l/s"
	UnitCount      Unit = "count"
	UnitFlops      Unit = "flop/s"
)

// Sample is a single timestamped observation. T is Unix milliseconds.
type Sample struct {
	T int64
	V float64
}

// Time converts the sample timestamp to a time.Time.
func (s Sample) Time() time.Time { return time.UnixMilli(s.T) }

// Label is one key/value pair identifying the origin of a series.
type Label struct {
	Key   string
	Value string
}

// Labels is a sorted, duplicate-free set of labels. The zero value is an
// empty, usable label set. Construct with NewLabels to guarantee ordering.
type Labels []Label

// NewLabels builds a Labels set from alternating key, value strings. It
// panics if given an odd number of arguments, since that is always a
// programming error.
func NewLabels(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("metric: NewLabels requires an even number of arguments")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Get returns the value for key and whether it was present.
func (ls Labels) Get(key string) (string, bool) {
	for _, l := range ls {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

// With returns a copy of ls with key set to value, replacing any existing
// entry and keeping the set sorted.
func (ls Labels) With(key, value string) Labels {
	out := make(Labels, 0, len(ls)+1)
	inserted := false
	for _, l := range ls {
		switch {
		case l.Key == key:
			out = append(out, Label{Key: key, Value: value})
			inserted = true
		case l.Key > key && !inserted:
			out = append(out, Label{Key: key, Value: value})
			out = append(out, l)
			inserted = true
		default:
			out = append(out, l)
		}
	}
	if !inserted {
		out = append(out, Label{Key: key, Value: value})
	}
	return out
}

// String renders the labels in canonical {k=v,...} form. Because labels are
// sorted, equal sets render identically, so the string doubles as a map key.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether two label sets contain identical pairs.
func (ls Labels) Equal(other Labels) bool {
	if len(ls) != len(other) {
		return false
	}
	for i := range ls {
		if ls[i] != other[i] {
			return false
		}
	}
	return true
}

// Matches reports whether every label in the (possibly partial) selector sel
// is present in ls with the same value.
func (ls Labels) Matches(sel Labels) bool {
	for _, want := range sel {
		got, ok := ls.Get(want.Key)
		if !ok || got != want.Value {
			return false
		}
	}
	return true
}

// ID identifies a series: a metric name plus its label set.
//
// key caches the canonical Key() serialization. It is only populated by
// NewID/Interned; IDs built with a plain struct literal keep working and
// serialize on demand. Name and Labels must not be mutated after interning
// or the cache goes stale.
type ID struct {
	Name   string
	Labels Labels

	key string
}

// NewID constructs an ID with the canonical key precomputed, so every later
// Key() call on hot ingest paths is a field read instead of a fresh
// name+labels serialization.
func NewID(name string, labels Labels) ID {
	id := ID{Name: name, Labels: labels}
	id.key = id.String()
	return id
}

// Interned returns a copy of id with the canonical key precomputed (a no-op
// when it already is).
func (id ID) Interned() ID {
	if id.key != "" {
		return id
	}
	return NewID(id.Name, id.Labels)
}

// String renders the ID as name{labels}.
func (id ID) String() string { return id.Name + id.Labels.String() }

// Key returns a canonical string usable as a map key.
func (id ID) Key() string {
	if id.key != "" {
		return id.key
	}
	return id.String()
}
