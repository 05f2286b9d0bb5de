package oda

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// virtualSystem models the live system as one append log per resource: a
// capability's "actuation" appends its name to every log its write set
// overlaps, and its "observation" folds the overlapped logs into a value.
// If the wave scheduler ever let conflicting capabilities overlap, or
// ordered them differently across worker counts, the logs would diverge.
type virtualSystem struct {
	mu   sync.Mutex
	logs map[Resource][]string
}

func newVirtualSystem(pool []Resource) *virtualSystem {
	logs := make(map[Resource][]string, len(pool))
	for _, r := range pool {
		logs[r] = []string{}
	}
	return &virtualSystem{logs: logs}
}

func (v *virtualSystem) write(who string, writes []Resource) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for r := range v.logs {
		for _, w := range writes {
			if w.overlaps(r) {
				v.logs[r] = append(v.logs[r], who)
				break
			}
		}
	}
}

func (v *virtualSystem) observe(reads []Resource) float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for r, log := range v.logs {
		for _, rd := range reads {
			if rd.overlaps(r) {
				n += len(log)
				break
			}
		}
	}
	return float64(n)
}

func (v *virtualSystem) state() map[Resource][]string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[Resource][]string, len(v.logs))
	for r, log := range v.logs {
		out[r] = append([]string(nil), log...)
	}
	return out
}

// fpSpec describes one randomized capability of the property test.
type fpSpec struct {
	name   string
	reads  []Resource
	writes []Resource
	fails  bool
}

// randomSpecs derives a deterministic capability population from a seed.
func randomSpecs(rng *rand.Rand, pool []Resource) []fpSpec {
	n := 5 + rng.Intn(16)
	specs := make([]fpSpec, n)
	for i := range specs {
		s := fpSpec{name: fmt.Sprintf("cap-%02d", i)}
		switch rng.Intn(10) {
		case 0: // wildcard writer
			s.writes = []Resource{ResWildcard}
		default:
			for _, r := range pool {
				if rng.Intn(4) == 0 {
					s.reads = append(s.reads, r)
				}
				if rng.Intn(6) == 0 {
					s.writes = append(s.writes, r)
				}
			}
		}
		s.fails = rng.Intn(8) == 0
		specs[i] = s
	}
	return specs
}

func specGrid(t *testing.T, specs []fpSpec, sys *virtualSystem) *Grid {
	t.Helper()
	g := NewGrid()
	for i, s := range specs {
		s := s
		idx := float64(i)
		err := g.Register(CapabilityFunc{
			M: Meta{
				Name:   s.name,
				Cells:  []Cell{{Pillar: SystemHardware, Type: Diagnostic}},
				Reads:  s.reads,
				Writes: s.writes,
			},
			Fn: func(ctx *RunContext) (Result, error) {
				if s.fails {
					return Result{}, fmt.Errorf("synthetic failure in %s", s.name)
				}
				observed := sys.observe(s.reads)
				sys.write(s.name, s.writes)
				return Result{Values: map[string]float64{"idx": idx, "observed": observed}}, nil
			},
		})
		if err != nil {
			t.Fatalf("register %s: %v", s.name, err)
		}
	}
	return g
}

// TestScheduleEquivalenceProperty is the determinism contract of the wave
// scheduler: for randomized capability sets with randomized footprints
// (including wildcard writers and failing capabilities),
// the results map, the errors map and the per-resource final actuator
// state are identical across workers 1, 2 and 8, over 100 seeds.
func TestScheduleEquivalenceProperty(t *testing.T) {
	pool := []Resource{
		ResCooling, ResPowerCap, ResNodeDVFS, ResJobQueue, ResAppParams,
		StoreResource("node_"), StoreResource("node_power"), StoreResource("facility_"),
	}
	for seed := int64(0); seed < 100; seed++ {
		specs := randomSpecs(rand.New(rand.NewSource(seed)), pool)
		type outcome struct {
			results map[string]Result
			errs    map[string]string
			state   map[Resource][]string
		}
		run := func(workers int) outcome {
			sys := newVirtualSystem(pool)
			g := specGrid(t, specs, sys)
			g.SetWorkers(workers)
			results, errs := g.RunAll(&RunContext{From: 0, To: 1})
			es := make(map[string]string, len(errs))
			for name, err := range errs {
				es[name] = err.Error()
			}
			return outcome{results: results, errs: es, state: sys.state()}
		}
		ref := run(1)
		for _, workers := range []int{2, 8} {
			got := run(workers)
			if !reflect.DeepEqual(got.results, ref.results) {
				t.Fatalf("seed %d workers %d: results diverge from serial\nserial: %v\ngot:    %v",
					seed, workers, ref.results, got.results)
			}
			if !reflect.DeepEqual(got.errs, ref.errs) {
				t.Fatalf("seed %d workers %d: errors diverge from serial\nserial: %v\ngot:    %v",
					seed, workers, ref.errs, got.errs)
			}
			if !reflect.DeepEqual(got.state, ref.state) {
				t.Fatalf("seed %d workers %d: final actuator state diverges from serial\nserial: %v\ngot:    %v",
					seed, workers, ref.state, got.state)
			}
		}
	}
}

// TestDisjointActuatorsOverlap is the dual of
// TestGridRunAllWildcardSerialized: two actuators with disjoint write
// footprints (cooling vs node-dvfs) must actually run in the same wave,
// proven by a rendezvous — each waits for the other before returning, so
// the sweep can only finish if they overlap in time.
func TestDisjointActuatorsOverlap(t *testing.T) {
	var inFlight, peak atomic.Int32
	arrived := make(chan string, 2)
	proceed := make(chan struct{})
	actuator := func(name string, w Resource) Capability {
		return CapabilityFunc{
			M: Meta{
				Name:   name,
				Cells:  []Cell{{Pillar: SystemHardware, Type: Prescriptive}},
				Writes: []Resource{w},
			},
			Fn: func(ctx *RunContext) (Result, error) {
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				arrived <- name
				select {
				case <-proceed:
				case <-time.After(5 * time.Second):
					return Result{}, errors.New("rendezvous timed out: actuators did not overlap")
				}
				inFlight.Add(-1)
				return Result{}, nil
			},
		}
	}
	g := NewGrid()
	if err := g.Register(actuator("dvfs", ResNodeDVFS)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(actuator("cooling", ResCooling)); err != nil {
		t.Fatal(err)
	}
	waves := g.Waves()
	if len(waves) != 1 || len(waves[0]) != 2 {
		t.Fatalf("write-disjoint actuators should share one wave, got %v", waves)
	}
	g.SetWorkers(2)
	done := make(chan struct{})
	var errs map[string]error
	go func() {
		defer close(done)
		_, errs = g.RunAll(&RunContext{})
	}()
	// Release the rendezvous only after both actuators have arrived.
	<-arrived
	<-arrived
	close(proceed)
	<-done
	for name, err := range errs {
		t.Fatalf("%s: %v", name, err)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak concurrency %d, want 2: disjoint actuators never overlapped", p)
	}
	st := g.ScheduleStats()
	if st.ActuatorsOverlapped < 2 {
		t.Fatalf("ActuatorsOverlapped = %d, want >= 2", st.ActuatorsOverlapped)
	}
	if st.MaxWaveWidth != 2 {
		t.Fatalf("MaxWaveWidth = %d, want 2", st.MaxWaveWidth)
	}
}

// TestRunAllRecoversPanics: a panicking capability becomes a per-capability
// error wrapping ErrCapabilityPanic (with the stack attached) and the pool
// stays healthy — the same grid immediately runs a clean second sweep.
func TestRunAllRecoversPanics(t *testing.T) {
	g := NewGrid()
	cell := Cell{Pillar: SystemHardware, Type: Diagnostic}
	if err := g.Register(CapabilityFunc{
		M:  Meta{Name: "bomb", Cells: []Cell{cell}},
		Fn: func(ctx *RunContext) (Result, error) { panic("kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("ok-%d", i)
		if err := g.Register(CapabilityFunc{
			M:  Meta{Name: name, Cells: []Cell{cell}},
			Fn: func(ctx *RunContext) (Result, error) { return Result{Summary: "fine"}, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	g.SetWorkers(4)
	for sweep := 0; sweep < 2; sweep++ {
		results, errs := g.RunAll(&RunContext{})
		if len(results) != 4 {
			t.Fatalf("sweep %d: %d results, want 4 (errs %v)", sweep, len(results), errs)
		}
		err := errs["bomb"]
		if err == nil || !errors.Is(err, ErrCapabilityPanic) {
			t.Fatalf("sweep %d: bomb error = %v, want ErrCapabilityPanic", sweep, err)
		}
		if !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("sweep %d: panic error should carry the message and stack, got %q", sweep, err)
		}
	}
	if st := g.ScheduleStats(); st.Panics != 2 {
		t.Fatalf("Panics = %d, want 2", st.Panics)
	}
}

// TestPipelineRecoversPanics: a panicking stage surfaces as the pipeline
// error (wrapping ErrCapabilityPanic) with the completed prefix intact.
func TestPipelineRecoversPanics(t *testing.T) {
	cell := Cell{Pillar: SystemHardware, Type: Diagnostic}
	var p Pipeline
	if err := p.Append(Diagnostic, CapabilityFunc{
		M:  Meta{Name: "first", Cells: []Cell{cell}},
		Fn: func(ctx *RunContext) (Result, error) { return Result{Summary: "done"}, nil },
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(Diagnostic, CapabilityFunc{
		M:  Meta{Name: "bomb", Cells: []Cell{cell}},
		Fn: func(ctx *RunContext) (Result, error) { panic("stage kaboom") },
	}); err != nil {
		t.Fatal(err)
	}
	stages, err := p.Run(&RunContext{})
	if err == nil || !errors.Is(err, ErrCapabilityPanic) {
		t.Fatalf("err = %v, want ErrCapabilityPanic", err)
	}
	if !strings.Contains(err.Error(), `stage "bomb"`) {
		t.Fatalf("error should name the stage, got %q", err)
	}
	if len(stages) != 1 || stages[0].Name != "first" {
		t.Fatalf("completed prefix = %v, want just the first stage", stages)
	}
}

// TestRegisterValidatesFootprints: resources outside the taxonomy are
// rejected at registration, and a capability that writes but covers no
// cells is rejected like any other cell-less capability.
func TestRegisterValidatesFootprints(t *testing.T) {
	cell := Cell{Pillar: BuildingInfrastructure, Type: Prescriptive}
	g := NewGrid()
	err := g.Register(CapabilityFunc{
		M: Meta{Name: "bad-writer", Cells: []Cell{cell}, Writes: []Resource{"chiller"}},
	})
	if err == nil || !strings.Contains(err.Error(), `unknown resource "chiller"`) {
		t.Fatalf("unknown write resource: err = %v", err)
	}
	err = g.Register(CapabilityFunc{
		M: Meta{Name: "bad-reader", Cells: []Cell{cell}, Reads: []Resource{"thermometer"}},
	})
	if err == nil || !strings.Contains(err.Error(), `unknown resource "thermometer"`) {
		t.Fatalf("unknown read resource: err = %v", err)
	}
	err = g.Register(CapabilityFunc{
		M: Meta{Name: "cell-less", Writes: []Resource{ResCooling}},
	})
	if err == nil || !strings.Contains(err.Error(), "covers no cells") {
		t.Fatalf("writes without cells: err = %v", err)
	}
	if g.Len() != 0 {
		t.Fatalf("rejected capabilities must not register, Len = %d", g.Len())
	}
	// Store resources with any prefix are valid, including the whole archive.
	err = g.Register(CapabilityFunc{
		M: Meta{Name: "reader", Cells: []Cell{cell}, Reads: []Resource{StoreResource(""), StoreResource("node_power")}},
	})
	if err != nil {
		t.Fatalf("store footprints should validate: %v", err)
	}
}

// TestRenderTableGolden pins the exact rendered table: empty cells carry a
// single pad space, names without refs get no trailing junk, and refs join
// after one space.
func TestRenderTableGolden(t *testing.T) {
	g := NewGrid()
	if err := g.Register(CapabilityFunc{M: Meta{
		Name:  "pue",
		Cells: []Cell{{Pillar: BuildingInfrastructure, Type: Descriptive}},
		Refs:  []string{"[4]", "[5]"},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(CapabilityFunc{M: Meta{
		Name:  "no-refs",
		Cells: []Cell{{Pillar: BuildingInfrastructure, Type: Descriptive}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(CapabilityFunc{M: Meta{
		Name:   "governor",
		Cells:  []Cell{{Pillar: SystemHardware, Type: Prescriptive}},
		Writes: []Resource{ResNodeDVFS},
	}}); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"| | Building Infrastructure | System Hardware | System Software | Applications |",
		"|---|---|---|---|---|",
		"| **Prescriptive** | | governor | | |",
		"| **Predictive** | | | | |",
		"| **Diagnostic** | | | | |",
		"| **Descriptive** | pue [4],[5]<br>no-refs | | | |",
		"",
	}, "\n")
	if got := g.RenderTable(); got != want {
		t.Fatalf("RenderTable mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPipelineFootprintWarnings: a stage whose reads overlap nothing its
// upstream wrote is flagged; a cleanly wired chain is not.
func TestPipelineFootprintWarnings(t *testing.T) {
	cell := Cell{Pillar: SystemHardware, Type: Prescriptive}
	writer := func(name string, w Resource) Capability {
		return CapabilityFunc{
			M:  Meta{Name: name, Cells: []Cell{cell}, Writes: []Resource{w}},
			Fn: func(ctx *RunContext) (Result, error) { return Result{}, nil },
		}
	}
	reader := func(name string, r Resource) Capability {
		return CapabilityFunc{
			M:  Meta{Name: name, Cells: []Cell{cell}, Reads: []Resource{r}},
			Fn: func(ctx *RunContext) (Result, error) { return Result{}, nil },
		}
	}
	var mismatched Pipeline
	if err := mismatched.Append(Prescriptive, writer("cooler", ResCooling)); err != nil {
		t.Fatal(err)
	}
	if err := mismatched.Append(Prescriptive, reader("queue-watcher", ResJobQueue)); err != nil {
		t.Fatal(err)
	}
	warns := mismatched.Warnings()
	if len(warns) != 1 || !strings.Contains(warns[0], `"queue-watcher" reads none of the resources "cooler" writes`) {
		t.Fatalf("warnings = %v, want one mismatch diagnostic", warns)
	}
	var clean Pipeline
	if err := clean.Append(Prescriptive, writer("budget", ResPowerCap)); err != nil {
		t.Fatal(err)
	}
	if err := clean.Append(Prescriptive, reader("budget-reader", ResPowerCap)); err != nil {
		t.Fatal(err)
	}
	if warns := clean.Warnings(); len(warns) != 0 {
		t.Fatalf("clean chain warnings = %v, want none", warns)
	}
	// A wildcard-writing upstream overlaps every read: never a mismatch.
	var whole Pipeline
	if err := whole.Append(Prescriptive, writer("whole-system", ResWildcard)); err != nil {
		t.Fatal(err)
	}
	if err := whole.Append(Prescriptive, reader("after-whole", ResJobQueue)); err != nil {
		t.Fatal(err)
	}
	if warns := whole.Warnings(); len(warns) != 0 {
		t.Fatalf("wildcard chain warnings = %v, want none", warns)
	}
}

// TestWavesKeepRegistrationOrderForConflicts: conflicting capabilities land
// in registration order across waves, and the plan is stable under
// replanning (Register invalidates the cache).
func TestWavesKeepRegistrationOrderForConflicts(t *testing.T) {
	g := NewGrid()
	cell := Cell{Pillar: SystemHardware, Type: Prescriptive}
	add := func(name string, reads, writes []Resource) {
		t.Helper()
		if err := g.Register(CapabilityFunc{
			M:  Meta{Name: name, Cells: []Cell{cell}, Reads: reads, Writes: writes},
			Fn: func(ctx *RunContext) (Result, error) { return Result{}, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("w1", nil, []Resource{ResCooling})
	add("w2", nil, []Resource{ResCooling}) // conflicts with w1 -> wave 1
	add("r1", []Resource{ResCooling}, nil) // conflicts with both -> wave 2
	add("free", nil, []Resource{ResJobQueue})
	got := g.Waves()
	want := [][]string{{"w1", "free"}, {"w2"}, {"r1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Waves = %v, want %v", got, want)
	}
	// Registering one more capability replans; earlier order is preserved.
	add("w3", nil, []Resource{ResJobQueue}) // conflicts with free -> wave 1
	got = g.Waves()
	want = [][]string{{"w1", "free"}, {"w2", "w3"}, {"r1"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Waves after replan = %v, want %v", got, want)
	}
}

// TestLintFootprints: a prescriptive capability that declares no writes is
// flagged; declared writers and non-prescriptive capabilities pass.
func TestLintFootprints(t *testing.T) {
	g := NewGrid()
	pres := Cell{Pillar: SystemHardware, Type: Prescriptive}
	diag := Cell{Pillar: SystemHardware, Type: Diagnostic}
	must := func(c Capability) {
		t.Helper()
		if err := g.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	must(CapabilityFunc{M: Meta{Name: "good", Cells: []Cell{pres}, Writes: []Resource{ResCooling}}})
	must(CapabilityFunc{M: Meta{Name: "read-only-diag", Cells: []Cell{diag}, Reads: []Resource{ResJobQueue}}})
	must(CapabilityFunc{M: Meta{Name: "toothless", Cells: []Cell{pres}}})
	got := LintFootprints(g)
	if len(got) != 1 || !strings.Contains(got[0], "toothless") {
		t.Fatalf("LintFootprints = %v, want exactly the toothless violation", got)
	}
}

// TestResourceOverlaps pins the overlap algebra the conflict graph is
// built on.
func TestResourceOverlaps(t *testing.T) {
	cases := []struct {
		a, b Resource
		want bool
	}{
		{ResCooling, ResCooling, true},
		{ResCooling, ResPowerCap, false},
		{ResWildcard, ResJobQueue, true},
		{ResWildcard, StoreResource("node_"), true},
		{StoreResource("node_"), StoreResource("node_power"), true},
		{StoreResource("node_power"), StoreResource("node_"), true},
		{StoreResource("node_power"), StoreResource("facility_"), false},
		{StoreResource(""), StoreResource("anything"), true},
		{StoreResource("node_"), ResNodeDVFS, false},
	}
	for _, c := range cases {
		if got := c.a.overlaps(c.b); got != c.want {
			t.Errorf("overlaps(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.overlaps(c.a); got != c.want {
			t.Errorf("overlaps(%q, %q) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}
