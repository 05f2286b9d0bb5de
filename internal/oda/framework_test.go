package oda

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

func cap1(name string, cells ...Cell) Capability {
	return CapabilityFunc{
		M: Meta{Name: name, Description: "test " + name, Cells: cells, Refs: []string{"[0]"}},
		Fn: func(ctx *RunContext) (Result, error) {
			return Result{Summary: name, Values: map[string]float64{"x": 1}}, nil
		},
	}
}

func TestTaxonomy(t *testing.T) {
	if len(Pillars()) != NumPillars || len(Types()) != NumTypes {
		t.Fatal("taxonomy sizes")
	}
	if len(AllCells()) != 16 {
		t.Fatalf("cells = %d", len(AllCells()))
	}
	seen := map[string]bool{}
	for _, c := range AllCells() {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate cell %s", s)
		}
		seen[s] = true
	}
	for _, typ := range Types() {
		if typ.Question() == "unknown" {
			t.Fatalf("%s has no question", typ)
		}
	}
	if Pillar(99).String() == "" || Type(99).String() == "" {
		t.Fatal("unknown enum should render")
	}
}

func TestGridRegisterValidation(t *testing.T) {
	g := NewGrid()
	c := Cell{Pillar: SystemHardware, Type: Diagnostic}
	if err := g.Register(cap1("a", c)); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(cap1("a", c)); err == nil {
		t.Fatal("duplicate name should error")
	}
	if err := g.Register(cap1("", c)); err == nil {
		t.Fatal("empty name should error")
	}
	if err := g.Register(cap1("nocells")); err == nil {
		t.Fatal("no cells should error")
	}
	if err := g.Register(cap1("bad", Cell{Pillar: 9, Type: Diagnostic})); err == nil {
		t.Fatal("invalid cell should error")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got, ok := g.Get("a"); !ok || got.Meta().Name != "a" {
		t.Fatal("Get failed")
	}
	if _, ok := g.Get("zz"); ok {
		t.Fatal("missing capability should not resolve")
	}
}

func TestGridCoverageAndGaps(t *testing.T) {
	g := NewGrid()
	_ = g.Register(cap1("a", Cell{BuildingInfrastructure, Descriptive}))
	_ = g.Register(cap1("b", Cell{BuildingInfrastructure, Descriptive}))
	cov := g.Coverage()
	if len(cov) != 16 {
		t.Fatalf("coverage cells = %d", len(cov))
	}
	if cov[Cell{BuildingInfrastructure, Descriptive}] != 2 {
		t.Fatal("coverage count wrong")
	}
	if gaps := g.Gaps(); len(gaps) != 15 {
		t.Fatalf("gaps = %d", len(gaps))
	}
	if caps := g.At(Cell{BuildingInfrastructure, Descriptive}); len(caps) != 2 {
		t.Fatal("At returned wrong count")
	}
}

func TestGridMultiPillarMultiType(t *testing.T) {
	g := NewGrid()
	_ = g.Register(cap1("single", Cell{SystemHardware, Diagnostic}))
	_ = g.Register(cap1("xpillar",
		Cell{SystemHardware, Prescriptive}, Cell{SystemSoftware, Prescriptive}))
	_ = g.Register(cap1("xtype",
		Cell{SystemHardware, Predictive}, Cell{SystemHardware, Prescriptive}))
	mp := g.MultiPillar()
	if len(mp) != 1 || mp[0].Meta().Name != "xpillar" {
		t.Fatalf("MultiPillar = %v", mp)
	}
	mt := g.MultiType()
	if len(mt) != 1 || mt[0].Meta().Name != "xtype" {
		t.Fatalf("MultiType = %v", mt)
	}
}

func TestGridRunAllCollectsErrors(t *testing.T) {
	g := NewGrid()
	_ = g.Register(cap1("ok", Cell{SystemHardware, Descriptive}))
	_ = g.Register(CapabilityFunc{
		M: Meta{Name: "broken", Cells: []Cell{{SystemHardware, Descriptive}}},
		Fn: func(ctx *RunContext) (Result, error) {
			return Result{}, errors.New("boom")
		},
	})
	results, errs := g.RunAll(&RunContext{})
	if len(results) != 1 || len(errs) != 1 {
		t.Fatalf("results=%d errs=%d", len(results), len(errs))
	}
	if results["ok"].Value("x") != 1 {
		t.Fatal("result payload lost")
	}
	if errs["broken"] == nil {
		t.Fatal("error not attributed")
	}
}

func TestRenderTableShape(t *testing.T) {
	g := NewGrid()
	_ = g.Register(cap1("pue-kpi", Cell{BuildingInfrastructure, Descriptive}))
	table := g.RenderTable()
	lines := strings.Split(strings.TrimSpace(table), "\n")
	// Header + separator + 4 type rows.
	if len(lines) != 6 {
		t.Fatalf("table lines = %d:\n%s", len(lines), table)
	}
	if !strings.Contains(lines[2], "Prescriptive") {
		t.Fatalf("first data row should be prescriptive: %s", lines[2])
	}
	if !strings.Contains(lines[5], "pue-kpi") {
		t.Fatalf("descriptive row missing capability: %s", lines[5])
	}
}

func TestPipelineStagedOrder(t *testing.T) {
	var p Pipeline
	if err := p.Append(Descriptive, cap1("d", Cell{SystemHardware, Descriptive})); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(Diagnostic, cap1("g", Cell{SystemHardware, Diagnostic})); err != nil {
		t.Fatal(err)
	}
	// Same type twice is allowed.
	if err := p.Append(Diagnostic, cap1("g2", Cell{SystemHardware, Diagnostic})); err != nil {
		t.Fatal(err)
	}
	// Going backwards violates the staged model.
	if err := p.Append(Descriptive, cap1("d2", Cell{SystemHardware, Descriptive})); err == nil {
		t.Fatal("backwards stage should error")
	}
	if err := p.Append(Type(9), cap1("x", Cell{SystemHardware, Descriptive})); err == nil {
		t.Fatal("invalid type should error")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPipelineThreadsResults(t *testing.T) {
	var p Pipeline
	_ = p.Append(Descriptive, CapabilityFunc{
		M: Meta{Name: "first", Cells: []Cell{{SystemHardware, Descriptive}}},
		Fn: func(ctx *RunContext) (Result, error) {
			if ctx.Upstream != nil {
				t.Error("first stage should have no upstream")
			}
			return Result{Values: map[string]float64{"v": 21}}, nil
		},
	})
	_ = p.Append(Prescriptive, CapabilityFunc{
		M: Meta{Name: "second", Cells: []Cell{{SystemHardware, Prescriptive}}},
		Fn: func(ctx *RunContext) (Result, error) {
			if ctx.Upstream == nil {
				t.Error("second stage missing upstream")
				return Result{}, nil
			}
			return Result{Values: map[string]float64{"v": ctx.Upstream.Value("v") * 2}}, nil
		},
	})
	results, err := p.Run(&RunContext{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[1].Result.Value("v") != 42 {
		t.Fatalf("pipeline results = %+v", results)
	}
	for _, r := range results {
		if r.Duration < 0 {
			t.Fatal("negative duration")
		}
	}
}

func TestPipelineStopsOnError(t *testing.T) {
	var p Pipeline
	_ = p.Append(Descriptive, CapabilityFunc{
		M:  Meta{Name: "boom", Cells: []Cell{{SystemHardware, Descriptive}}},
		Fn: func(ctx *RunContext) (Result, error) { return Result{}, errors.New("bad") },
	})
	_ = p.Append(Diagnostic, cap1("never", Cell{SystemHardware, Diagnostic}))
	results, err := p.Run(&RunContext{})
	if err == nil || len(results) != 0 {
		t.Fatalf("expected failure at stage 0, got %v, %v", results, err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error should name the stage: %v", err)
	}
}

func TestRunContextCarriesStore(t *testing.T) {
	store := timeseries.NewStore(0)
	id := metric.ID{Name: "m"}
	_ = store.Append(id, metric.Gauge, "", 1, 5)
	c := CapabilityFunc{
		M: Meta{Name: "probe", Cells: []Cell{{SystemHardware, Descriptive}}},
		Fn: func(ctx *RunContext) (Result, error) {
			vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, 0)
			if err != nil {
				return Result{}, err
			}
			return Result{Values: map[string]float64{"n": float64(len(vals))}}, nil
		},
	}
	res, err := c.Run(&RunContext{Store: store, From: 0, To: 10})
	if err != nil || res.Value("n") != 1 {
		t.Fatalf("res = %+v, %v", res, err)
	}
}

// slowCap reports how many capabilities are in flight at once, so tests can
// assert both real concurrency and wildcard-write serialization.
func slowCap(name string, writes []Resource, inFlight, peak *atomic.Int32) Capability {
	return CapabilityFunc{
		M: Meta{
			Name:        name,
			Description: "test " + name,
			Cells:       []Cell{{SystemHardware, Descriptive}},
			Writes:      writes,
		},
		Fn: func(ctx *RunContext) (Result, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return Result{Summary: name, Values: map[string]float64{"x": float64(len(name))}}, nil
		},
	}
}

// TestGridRunAllParallelMatchesSerial runs the same grid with a serial and a
// parallel pool and requires identical result and error maps.
func TestGridRunAllParallelMatchesSerial(t *testing.T) {
	build := func() *Grid {
		g := NewGrid()
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("cap%02d", i)
			if i%4 == 3 {
				_ = g.Register(CapabilityFunc{
					M:  Meta{Name: name, Cells: []Cell{{SystemSoftware, Diagnostic}}},
					Fn: func(ctx *RunContext) (Result, error) { return Result{}, errors.New("boom " + name) },
				})
				continue
			}
			_ = g.Register(cap1(name, Cell{SystemHardware, Descriptive}))
		}
		return g
	}

	serial := build()
	serial.SetWorkers(1)
	wantRes, wantErrs := serial.RunAll(&RunContext{})

	parallel := build()
	parallel.SetWorkers(8)
	gotRes, gotErrs := parallel.RunAll(&RunContext{})

	if len(gotRes) != len(wantRes) || len(gotErrs) != len(wantErrs) {
		t.Fatalf("parallel RunAll: %d results/%d errors, serial: %d/%d",
			len(gotRes), len(gotErrs), len(wantRes), len(wantErrs))
	}
	for name, want := range wantRes {
		got, ok := gotRes[name]
		if !ok || got.Summary != want.Summary || got.Value("x") != want.Value("x") {
			t.Fatalf("result %q: parallel %+v, serial %+v", name, got, want)
		}
	}
	for name, want := range wantErrs {
		got, ok := gotErrs[name]
		if !ok || got.Error() != want.Error() {
			t.Fatalf("error %q: parallel %v, serial %v", name, got, want)
		}
	}
}

// TestGridRunAllWildcardSerialized checks that wildcard writers never
// overlap each other or the concurrent sweep, while capabilities that
// declare nothing do actually run concurrently when workers allow.
func TestGridRunAllWildcardSerialized(t *testing.T) {
	var (
		concIn, concPeak atomic.Int32
		exclIn, exclPeak atomic.Int32
	)
	g := NewGrid()
	for i := 0; i < 8; i++ {
		_ = g.Register(slowCap(fmt.Sprintf("conc%d", i), nil, &concIn, &concPeak))
	}
	var order []string
	var orderMu sync.Mutex
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("excl%d", i)
		inner := slowCap(name, []Resource{ResWildcard}, &exclIn, &exclPeak)
		_ = g.Register(CapabilityFunc{
			M: inner.Meta(),
			Fn: func(ctx *RunContext) (Result, error) {
				if concIn.Load() != 0 {
					t.Errorf("%s ran while concurrent sweep still in flight", name)
				}
				orderMu.Lock()
				order = append(order, name)
				orderMu.Unlock()
				return inner.Run(ctx)
			},
		})
	}
	g.SetWorkers(4)
	results, errs := g.RunAll(&RunContext{})
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(results) != 12 {
		t.Fatalf("results = %d, want 12", len(results))
	}
	if exclPeak.Load() != 1 {
		t.Fatalf("wildcard-writer peak concurrency = %d, want 1", exclPeak.Load())
	}
	want := []string{"excl0", "excl1", "excl2", "excl3"}
	if len(order) != len(want) {
		t.Fatalf("wildcard-writer order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wildcard-writer order = %v, want registration order %v", order, want)
		}
	}
	if runtime.GOMAXPROCS(0) > 1 && concPeak.Load() < 2 {
		t.Fatalf("concurrent peak = %d, expected >= 2 with 4 workers", concPeak.Load())
	}
}

// TestGridRunAllConcurrentInvocations drives RunAll itself from several
// goroutines to exercise the grid's read paths under -race.
func TestGridRunAllConcurrentInvocations(t *testing.T) {
	g := NewGrid()
	store := timeseries.NewStore(0)
	for i := 0; i < 6; i++ {
		_ = g.Register(cap1(fmt.Sprintf("c%d", i), Cell{SystemHardware, Descriptive}))
	}
	g.SetWorkers(2)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				results, errs := g.RunAll(&RunContext{Store: store})
				if len(results) != 6 || len(errs) != 0 {
					t.Errorf("RunAll = %d results, %d errors", len(results), len(errs))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGridDefaultIsSerial: with no SetWorkers call a sweep runs one capability
// at a time in registration order; SetWorkers(4) overlaps the same
// footprint-free capabilities (they block, so they overlap on one CPU too),
// and SetWorkers(0) afterwards restores the serial default.
func TestGridDefaultIsSerial(t *testing.T) {
	g := NewGrid()
	var in, peak atomic.Int32
	var mu sync.Mutex
	var order []string
	var want []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("c%d", i)
		want = append(want, name)
		inner := slowCap(name, nil, &in, &peak)
		_ = g.Register(CapabilityFunc{
			M: inner.Meta(),
			Fn: func(ctx *RunContext) (Result, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return inner.Run(ctx)
			},
		})
	}
	sweep := func() (int32, []string) {
		peak.Store(0)
		order = nil
		if _, errs := g.RunAll(&RunContext{}); len(errs) != 0 {
			t.Fatalf("unexpected errors: %v", errs)
		}
		return peak.Load(), order
	}
	checkSerial := func(when string) {
		t.Helper()
		p, got := sweep()
		if p != 1 {
			t.Fatalf("%s: peak concurrency %d, want 1", when, p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: order %v, want registration order", when, got)
		}
	}
	checkSerial("default")
	if st := g.ScheduleStats(); st.Waves != 1 || st.MaxWaveWidth != 0 {
		t.Fatalf("default sweep booked %d waves, width %d: want one serial wave, nothing overlapped", st.Waves, st.MaxWaveWidth)
	}
	g.SetWorkers(4)
	if p, _ := sweep(); p < 2 {
		t.Fatalf("SetWorkers(4): peak concurrency %d, want the pool to overlap blocking capabilities", p)
	}
	g.SetWorkers(0)
	checkSerial("SetWorkers(0) after SetWorkers(4)")
}
