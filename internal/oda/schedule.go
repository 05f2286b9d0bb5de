// Wave scheduling: RunAll's replacement for the old two-phase
// concurrent/exclusive split. Capabilities declare read/write footprints
// (Meta.Reads, Meta.Writes) over the Resource taxonomy; the planner builds
// a conflict graph over the declarations and packs the capabilities into
// waves — every member of a wave is footprint-disjoint from every other
// member, so a wave runs concurrently on the worker pool, and conflicting
// capabilities keep registration order across waves. The schedule depends
// only on the registered set, never on the worker count, which is what
// makes the sweep's results and the per-resource final actuator state
// identical for every pool size (the schedule-equivalence property test
// pins this against the serial path).
package oda

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrCapabilityPanic marks a capability that panicked mid-run. RunAll and
// Pipeline.Run recover the panic into a per-capability error wrapping this
// sentinel (with the goroutine stack), so one broken analytic cannot kill
// a sweep or leak a poisoned worker.
var ErrCapabilityPanic = errors.New("oda: capability panicked")

// ScheduleStats are cumulative wave-scheduler counters, exposed for
// operator observability (odad /stats, odactl stats).
type ScheduleStats struct {
	// Sweeps counts RunAll invocations.
	Sweeps int64 `json:"sweeps"`
	// Waves counts executed waves across all sweeps (serial sweeps run as
	// one registration-ordered wave).
	Waves int64 `json:"waves"`
	// MaxWaveWidth is the widest wave ever executed.
	MaxWaveWidth int `json:"max_wave_width"`
	// ConflictsDeferred counts capability pairs whose footprint conflict
	// forced the later capability into a later wave, cumulative per sweep.
	ConflictsDeferred int64 `json:"conflicts_deferred"`
	// ActuatorsOverlapped counts writing capabilities that shared a wave
	// with at least one other writer.
	ActuatorsOverlapped int64 `json:"actuators_overlapped"`
	// Panics counts capability panics recovered into errors.
	Panics int64 `json:"panics"`
}

// schedulePlan is the precomputed wave decomposition of a grid.
type schedulePlan struct {
	waves     [][]string // capability names, wave-major, registration order inside a wave
	conflicts int64      // deferred-conflict edge count
}

// planWaves packs the names into conflict-free waves by list scheduling in
// registration order: a capability lands one wave after the latest
// conflicting predecessor, so every conflicting pair keeps registration
// order and every wave is mutually footprint-disjoint.
func planWaves(names []string, fps map[string]footprint) schedulePlan {
	waveOf := make(map[string]int, len(names))
	var plan schedulePlan
	for i, name := range names {
		wave := 0
		for _, prev := range names[:i] {
			if fps[prev].conflicts(fps[name]) {
				if w := waveOf[prev] + 1; w > wave {
					wave = w
				}
				plan.conflicts++
			}
		}
		waveOf[name] = wave
		for len(plan.waves) <= wave {
			plan.waves = append(plan.waves, nil)
		}
		plan.waves[wave] = append(plan.waves[wave], name)
	}
	return plan
}

// plan returns the grid's cached wave decomposition, rebuilding it after
// registrations.
func (g *Grid) plan() schedulePlan {
	g.schedMu.Lock()
	defer g.schedMu.Unlock()
	if g.schedPlan == nil {
		fps := make(map[string]footprint, len(g.byName))
		for name, c := range g.byName {
			m := c.Meta()
			fps[name] = footprint{reads: m.Reads, writes: m.Writes}
		}
		p := planWaves(g.order, fps)
		g.schedPlan = &p
	}
	return *g.schedPlan
}

// ScheduleStats returns a snapshot of the cumulative scheduler counters.
func (g *Grid) ScheduleStats() ScheduleStats {
	g.schedMu.Lock()
	defer g.schedMu.Unlock()
	return g.schedStats
}

// Waves returns the planned wave decomposition as capability names —
// introspection for reports and tests; the slices are copies.
func (g *Grid) Waves() [][]string {
	plan := g.plan()
	out := make([][]string, len(plan.waves))
	for i, w := range plan.waves {
		out[i] = append([]string(nil), w...)
	}
	return out
}

// runSafely executes one capability, recovering a panic into an error
// wrapping ErrCapabilityPanic with the goroutine stack attached.
func runSafely(c Capability, ctx *RunContext) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			n := runtime.Stack(buf, false)
			err = fmt.Errorf("%w: %v\n%s", ErrCapabilityPanic, r, buf[:n])
		}
	}()
	return c.Run(ctx)
}

// runWave executes one wave's capabilities on at most workers goroutines,
// collecting into results/errs under mu. Members are mutually
// footprint-disjoint, so intra-wave ordering cannot affect outcomes.
func (g *Grid) runWave(ctx *RunContext, wave []string, workers int, collect func(string, Result, error)) {
	if len(wave) == 1 || workers <= 1 {
		for _, name := range wave {
			res, err := runSafely(g.byName[name], ctx)
			collect(name, res, err)
		}
		return
	}
	if workers > len(wave) {
		workers = len(wave)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	jobs := make(chan string)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range jobs {
				res, err := runSafely(g.byName[name], ctx)
				mu.Lock()
				collect(name, res, err)
				mu.Unlock()
			}
		}()
	}
	for _, name := range wave {
		jobs <- name
	}
	close(jobs)
	wg.Wait()
}

// recordSweep folds one executed sweep into the cumulative counters.
// parallel=false (the serial reference path) records the sweep without
// width or overlap accounting: nothing actually overlapped.
func (g *Grid) recordSweep(plan schedulePlan, panics int64, parallel bool) {
	g.schedMu.Lock()
	defer g.schedMu.Unlock()
	st := &g.schedStats
	st.Sweeps++
	st.Waves += int64(len(plan.waves))
	st.ConflictsDeferred += plan.conflicts
	st.Panics += panics
	if !parallel {
		return
	}
	for _, wave := range plan.waves {
		if len(wave) > st.MaxWaveWidth {
			st.MaxWaveWidth = len(wave)
		}
		writers := 0
		for _, name := range wave {
			if len(g.byName[name].Meta().Writes) > 0 {
				writers++
			}
		}
		if writers >= 2 {
			st.ActuatorsOverlapped += int64(writers)
		}
	}
}

// LintFootprints reports footprint-convention violations: every capability
// covering a prescriptive cell must declare a non-empty write set, because
// a prescription that actuates nothing cannot be scheduled against the
// loops that do. Returns
// one message per violation, empty when the grid is clean.
func LintFootprints(g *Grid) []string {
	var out []string
	for _, name := range g.order {
		m := g.byName[name].Meta()
		prescriptive := false
		for _, cell := range m.Cells {
			if cell.Type == Prescriptive {
				prescriptive = true
				break
			}
		}
		if prescriptive && len(m.Writes) == 0 {
			out = append(out, fmt.Sprintf("%s: prescriptive capability declares no write footprint", name))
		}
	}
	return out
}
