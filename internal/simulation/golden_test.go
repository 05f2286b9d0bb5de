package simulation

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/metric"
)

// telemetrySHA256 hashes everything the run put in the store — every series
// in first-ingest order with its kind, unit and every decoded (T, V) — so it
// pins the simulated values themselves, not the chunk codec that holds them.
func telemetrySHA256(t *testing.T, dc *DataCenter) string {
	t.Helper()
	h := sha256.New()
	var buf [16]byte
	for _, sd := range dc.Store.Dump() {
		var samples []metric.Sample
		if err := dc.Store.Each(sd.ID, math.MinInt64, math.MaxInt64, func(sm metric.Sample) bool {
			samples = append(samples, sm)
			return true
		}); err != nil {
			t.Fatalf("Each(%s): %v", sd.ID.Key(), err)
		}
		fmt.Fprintf(h, "%s|%d|%s|%d\n", sd.ID.Key(), sd.Kind, sd.Unit, len(samples))
		for _, s := range samples {
			binary.LittleEndian.PutUint64(buf[:8], uint64(s.T))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.V))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTelemetryGolden pins a seeded run byte for byte. The hashes and counts
// were taken at the last commit whose stepper fanned the per-node loops out
// over a worker pool (ba638cf, Config.Workers = 4, 64 nodes: above that
// stepper's 48-node threshold; 1 and 0 read the same), so the node-order loops
// that replaced it must reproduce what it produced. That commit needed one
// fix before seed 42 hashed the same twice: network.Step summed flows in map
// order (see TestUplinkLoadIndependentOfMapOrder); seed 7 is unmoved by it.
// A change that moves these is a change to the simulated physics or to
// accumulation order, not a test to update.
func TestTelemetryGolden(t *testing.T) {
	for _, want := range []struct {
		seed                                 int64
		sha                                  string
		samples, events, jobs, killed, fails int
	}{
		{42, "f86cd55bc7233bf97fc8520e1a0bc87f757edfa9f6c2fd5c67b55f718db6357f", 675360, 1543, 286, 10, 10},
		{7, "013e8e70980c615465f72680da4d8fe60790bd2f09d96ad0b175830f79223ac2", 675360, 1665, 340, 10, 10},
	} {
		cfg := DefaultConfig(want.seed)
		cfg.Nodes = 64
		cfg.Workload.MeanInterarrival = 90
		dc := New(cfg)
		dc.RunFor(24 * 3600)
		if got := telemetrySHA256(t, dc); got != want.sha {
			t.Errorf("seed %d: telemetry sha256 = %s, want %s", want.seed, got, want.sha)
		}
		got := []int{dc.Store.NumSamples(), dc.Events.Len(), len(dc.Allocations()), dc.KilledJobs, dc.FailureEvents}
		exp := []int{want.samples, want.events, want.jobs, want.killed, want.fails}
		for i, name := range []string{"samples", "events", "job records", "killed jobs", "failure events"} {
			if got[i] != exp[i] {
				t.Errorf("seed %d: %s = %d, want %d", want.seed, name, got[i], exp[i])
			}
		}
	}
}
