package oda

import (
	"fmt"
	"strings"
)

// Resource names one actuation surface or telemetry region of the live
// system. Capabilities declare the resources they observe (Meta.Reads) and
// mutate (Meta.Writes); the wave scheduler in RunAll uses the declarations
// to overlap capabilities that cannot interfere and to order the ones that
// can. The taxonomy is deliberately coarse — one slug per pillar subsystem —
// because the point is conflict detection between control loops, not
// fine-grained locking.
type Resource string

// The actuation-surface taxonomy. Each slug maps to a concrete knob set of
// simulation.DataCenter (see DataCenter.ActuatorState):
const (
	// ResWildcard declares the whole system: a wildcard write conflicts
	// with every other capability, which serializes it against all of them
	// in registration order. A wildcard read conflicts with every writer.
	ResWildcard Resource = "*"
	// ResCooling is the thermal plant: facility cooling mode, supply
	// setpoint, and per-node fan duty (building-infrastructure pillar).
	ResCooling Resource = "cooling"
	// ResPowerCap is the scheduler's power budget and per-job power
	// estimator (the Powerstack-style site power knob).
	ResPowerCap Resource = "power-cap"
	// ResNodeDVFS is the per-node P-state selection (system-hardware pillar).
	ResNodeDVFS Resource = "node-dvfs"
	// ResJobQueue is the scheduler state: queue, policy, allocations and
	// runtime predictors (system-software pillar).
	ResJobQueue Resource = "job-queue"
	// ResAppParams is the application tuning surface: kernel parameters and
	// per-class developer recommendations (applications pillar).
	ResAppParams Resource = "app-params"
	// ResEvents is the structured operational event log (read surface; the
	// simulation writes it, capabilities only consume it).
	ResEvents Resource = "events"
)

// storeScheme prefixes telemetry-region resources: "store:<metric-prefix>"
// declares every series whose metric name starts with the prefix, and the
// bare "store:" declares the whole archive.
const storeScheme = "store:"

// StoreResource declares a telemetry region by metric-name prefix, e.g.
// StoreResource("node_power") covers node_power_watts on every node. Two
// store resources conflict when either prefix extends the other.
func StoreResource(metricPrefix string) Resource {
	return Resource(storeScheme + metricPrefix)
}

// storePrefix returns the metric prefix and true when r is a store region.
func (r Resource) storePrefix() (string, bool) {
	s := string(r)
	if strings.HasPrefix(s, storeScheme) {
		return s[len(storeScheme):], true
	}
	return "", false
}

// Validate reports whether r belongs to the taxonomy.
func (r Resource) Validate() error {
	switch r {
	case ResWildcard, ResCooling, ResPowerCap, ResNodeDVFS, ResJobQueue, ResAppParams, ResEvents:
		return nil
	}
	if _, ok := r.storePrefix(); ok {
		return nil
	}
	return fmt.Errorf("oda: unknown resource %q (want %q, %q, %q, %q, %q, %q, %q<metric-prefix>, or %q)",
		r, ResCooling, ResPowerCap, ResNodeDVFS, ResJobQueue, ResAppParams, ResEvents, storeScheme, ResWildcard)
}

// overlaps reports whether the two resources denote overlapping surfaces:
// equal slugs, store regions with nested prefixes, or a wildcard against
// anything.
func (r Resource) overlaps(o Resource) bool {
	if r == ResWildcard || o == ResWildcard {
		return true
	}
	rp, rs := r.storePrefix()
	op, os := o.storePrefix()
	if rs != os {
		return false
	}
	if rs {
		return strings.HasPrefix(rp, op) || strings.HasPrefix(op, rp)
	}
	return r == o
}

// footprint is a capability's resource declaration.
type footprint struct {
	reads, writes []Resource
}

// wildcardWrite reports whether the footprint writes the whole system.
func (fp footprint) wildcardWrite() bool {
	for _, w := range fp.writes {
		if w == ResWildcard {
			return true
		}
	}
	return false
}

// touches is the read+write set a peer's writes are checked against.
func (fp footprint) touches() []Resource {
	if len(fp.writes) == 0 {
		return fp.reads
	}
	out := make([]Resource, 0, len(fp.reads)+len(fp.writes))
	out = append(out, fp.reads...)
	out = append(out, fp.writes...)
	return out
}

// conflicts reports whether two capabilities may interfere: either one's
// write set overlaps anything the other touches. Read-read overlap never
// conflicts. A wildcard write conflicts with every capability, even one
// that declares nothing.
func (fp footprint) conflicts(other footprint) bool {
	if fp.wildcardWrite() || other.wildcardWrite() {
		return true
	}
	return intersects(fp.writes, other.touches()) || intersects(other.writes, fp.touches())
}

// intersects reports whether any resource in ws overlaps any in fps.
func intersects(ws, fps []Resource) bool {
	for _, w := range ws {
		for _, f := range fps {
			if w.overlaps(f) {
				return true
			}
		}
	}
	return false
}
