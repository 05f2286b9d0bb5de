package repro

import (
	"reflect"
	"testing"

	"repro/internal/oda"
)

// TestFootprintLint is the `make lint-footprints` gate: every prescriptive
// capability in the full grid must declare a non-empty write footprint —
// an actuator the scheduler cannot place against the other control loops
// is a registration bug, not a runtime surprise.
func TestFootprintLint(t *testing.T) {
	g, err := FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range oda.LintFootprints(g) {
		t.Error(v)
	}
}

// TestFullGridDeclaresFootprints: every built-in capability declares at
// least one read or write.
func TestFullGridDeclaresFootprints(t *testing.T) {
	g, err := FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range g.Names() {
		c, _ := g.Get(name)
		m := c.Meta()
		if len(m.Reads) == 0 && len(m.Writes) == 0 {
			t.Errorf("%s: declares no footprint at all", name)
		}
	}
}

// TestFullGridWaveEquivalence runs the real 4x4 grid over the same
// simulated center at workers 1, 2 and 8 and requires identical result
// values, identical error sets and an identical final actuator state —
// the production form of the schedule-equivalence property.
func TestFullGridWaveEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid sweep is minutes of simulated telemetry")
	}
	type outcome struct {
		values map[string]map[string]float64
		errs   map[string]string
		state  any
	}
	run := func(workers int) outcome {
		g, err := FullGrid()
		if err != nil {
			t.Fatal(err)
		}
		g.SetWorkers(workers)
		exp := StandardExperiment(7, 32, 3)
		results, errs := g.RunAll(exp.Ctx)
		o := outcome{
			values: make(map[string]map[string]float64, len(results)),
			errs:   make(map[string]string, len(errs)),
			state:  exp.DC.ActuatorState(),
		}
		for name, res := range results {
			o.values[name] = res.Values
		}
		for name, err := range errs {
			o.errs[name] = err.Error()
		}
		return o
	}
	ref := run(1)
	if len(ref.values) == 0 {
		t.Fatalf("serial sweep produced no results (errs %v)", ref.errs)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.values, ref.values) {
			t.Errorf("workers %d: result values diverge from serial", workers)
		}
		if !reflect.DeepEqual(got.errs, ref.errs) {
			t.Errorf("workers %d: errors diverge from serial\nserial: %v\ngot:    %v", workers, ref.errs, got.errs)
		}
		if !reflect.DeepEqual(got.state, ref.state) {
			t.Errorf("workers %d: final actuator state diverges from serial\nserial: %+v\ngot:    %+v",
				workers, ref.state, got.state)
		}
	}
}

// TestFullGridWaves sanity-checks the production schedule: multiple waves
// (conflicting actuators are ordered), a first wave far wider than one
// (read-only analytics overlap), and more than one writer sharing a wave
// somewhere (the whole point of footprints over one global actuator lock).
func TestFullGridWaves(t *testing.T) {
	g, err := FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	waves := g.Waves()
	if len(waves) < 2 {
		t.Fatalf("expected conflicting actuators to need >= 2 waves, got %v", waves)
	}
	if len(waves[0]) < 5 {
		t.Fatalf("expected a wide read-only first wave, got %v", waves[0])
	}
	writersInWave := func(wave []string) int {
		n := 0
		for _, name := range wave {
			c, _ := g.Get(name)
			if len(c.Meta().Writes) > 0 {
				n++
			}
		}
		return n
	}
	overlapped := false
	for _, wave := range waves {
		if writersInWave(wave) >= 2 {
			overlapped = true
			break
		}
	}
	if !overlapped {
		t.Fatalf("no wave holds two writers; schedule %v degenerated to exclusive-style serialization", waves)
	}
}
