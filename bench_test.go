package repro

// Benchmarks, one per paper artifact (DESIGN.md §3) plus the ablations of
// DESIGN.md §4. The Table I benches time one representative capability per
// grid cell against a shared pre-simulated telemetry archive; the Fig. 3
// benches time the composed systems end to end (simulation included, since
// the control loop IS the system); the ablation benches compare design
// alternatives (compression, policies, forecasters, collection paths).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/descriptive"
	"repro/internal/diagnostic"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/predictive"
	"repro/internal/prescriptive"
	"repro/internal/scheduler"
	"repro/internal/simulation"
	"repro/internal/timeseries"
	"repro/internal/wire"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchRun  *StandardRun
)

// benchCtx lazily builds one shared 8-hour, 16-node archive for the
// capability benches.
func benchCtx(b *testing.B) *oda.RunContext {
	b.Helper()
	benchOnce.Do(func() {
		benchRun = StandardExperiment(1, 16, 8)
	})
	ctx := *benchRun.Ctx
	return &ctx
}

func benchCapability(b *testing.B, c oda.Capability) {
	ctx := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: one bench per grid cell (E1) ---

// Descriptive row.
func BenchmarkTableI_Descriptive_Building(b *testing.B) { benchCapability(b, descriptive.PUE{}) }
func BenchmarkTableI_Descriptive_Hardware(b *testing.B) { benchCapability(b, descriptive.SIE{}) }
func BenchmarkTableI_Descriptive_Software(b *testing.B) { benchCapability(b, descriptive.Slowdown{}) }
func BenchmarkTableI_Descriptive_Apps(b *testing.B)     { benchCapability(b, descriptive.Roofline{}) }

// Diagnostic row.
func BenchmarkTableI_Diagnostic_Building(b *testing.B) { benchCapability(b, diagnostic.InfraAnomaly{}) }
func BenchmarkTableI_Diagnostic_Hardware(b *testing.B) { benchCapability(b, diagnostic.NodeAnomaly{}) }
func BenchmarkTableI_Diagnostic_Software(b *testing.B) { benchCapability(b, diagnostic.RogueProcess{}) }
func BenchmarkTableI_Diagnostic_Apps(b *testing.B) {
	benchCapability(b, diagnostic.AppFingerprint{Seed: 1})
}

// Predictive row.
func BenchmarkTableI_Predictive_Building(b *testing.B) { benchCapability(b, predictive.KPIForecast{}) }
func BenchmarkTableI_Predictive_Hardware(b *testing.B) {
	benchCapability(b, predictive.SensorForecast{})
}
func BenchmarkTableI_Predictive_Software(b *testing.B) {
	benchCapability(b, predictive.WorkloadForecast{})
}
func BenchmarkTableI_Predictive_Apps(b *testing.B) {
	benchCapability(b, predictive.JobDuration{Seed: 1})
}

// Prescriptive row.
func BenchmarkTableI_Prescriptive_Building(b *testing.B) {
	benchCapability(b, prescriptive.SetpointOptimizer{})
}
func BenchmarkTableI_Prescriptive_Hardware(b *testing.B) {
	benchCapability(b, prescriptive.DVFSGovernor{})
}
func BenchmarkTableI_Prescriptive_Software(b *testing.B) {
	benchCapability(b, prescriptive.PolicyAdvisor{})
}
func BenchmarkTableI_Prescriptive_Apps(b *testing.B) {
	benchCapability(b, prescriptive.AutoTuner{Budget: 60})
}

// --- Fig. 1: per-pillar telemetry sources (E2) ---

func benchSourceCollect(b *testing.B, src collector.Source) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Collect(int64(i) * 1000)
	}
}

func BenchmarkFig1_PillarSources_Facility(b *testing.B) {
	ctx := benchCtx(b)
	dc := ctx.System.(*simulation.DataCenter)
	benchSourceCollect(b, dc.Facility.Source())
}

func BenchmarkFig1_PillarSources_Hardware(b *testing.B) {
	ctx := benchCtx(b)
	dc := ctx.System.(*simulation.DataCenter)
	benchSourceCollect(b, dc.Nodes[0].Source())
}

func BenchmarkFig1_PillarSources_Network(b *testing.B) {
	ctx := benchCtx(b)
	dc := ctx.System.(*simulation.DataCenter)
	benchSourceCollect(b, dc.Net.Source())
}

// --- Fig. 2: the staged pipeline (E3) ---

func BenchmarkFig2_StagedPipeline(b *testing.B) {
	ctx := benchCtx(b)
	var p oda.Pipeline
	if err := p.Append(oda.Descriptive, descriptive.PUE{}); err != nil {
		b.Fatal(err)
	}
	if err := p.Append(oda.Diagnostic, diagnostic.InfraAnomaly{}); err != nil {
		b.Fatal(err)
	}
	if err := p.Append(oda.Predictive, predictive.KPIForecast{}); err != nil {
		b.Fatal(err)
	}
	if err := p.Append(oda.Prescriptive, prescriptive.SetpointOptimizer{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: the composed systems, simulation included (E4-E6) ---

func BenchmarkFig3_ENI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3ENI(int64(i)+1, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_GEOPM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3GEOPM(int64(i)+1, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_Powerstack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3Powerstack(int64(i)+1, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Survey, LLNL and PUE experiments (E7-E9) ---

func BenchmarkSurvey_Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Survey(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLLNL_PowerSpikeForecast(b *testing.B) {
	benchCapability(b, predictive.PowerSpike{})
}

func BenchmarkPUE_ControlModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PUEControlModes(int64(i)+1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

func BenchmarkTSDB_AppendGorilla(b *testing.B) {
	store := timeseries.NewStore(0)
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n0")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(store.CompressionRatio(), "compression-ratio")
}

func BenchmarkTSDB_QueryRange(b *testing.B) {
	store := timeseries.NewStore(0)
	id := metric.ID{Name: "power", Labels: metric.NewLabels("node", "n0")}
	for i := 0; i < 100_000; i++ {
		_ = store.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i%100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := store.Each(id, 10_000_000, 20_000_000, func(metric.Sample) bool { n++; return true }); err != nil || n != 10_000 {
			b.Fatalf("query: %d samples, %v", n, err)
		}
	}
}

func benchPolicy(b *testing.B, p scheduler.Policy) {
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Seed: 3, Users: 16, MeanInterarrival: 60, MaxNodes: 16,
	})
	jobs := gen.GenerateUntil(0, 12*3600*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := predictive.Replay(jobs, 32, p)
		if m.FinishedJobs == 0 {
			b.Fatal("replay finished nothing")
		}
	}
}

func BenchmarkScheduler_FCFS(b *testing.B)      { benchPolicy(b, scheduler.FCFS{}) }
func BenchmarkScheduler_EASY(b *testing.B)      { benchPolicy(b, scheduler.EASY{}) }
func BenchmarkScheduler_PlanBased(b *testing.B) { benchPolicy(b, scheduler.PlanBased{}) }

func benchForecaster(b *testing.B, f forecast.Forecaster) {
	series := make([]float64, 4000)
	for i := range series {
		series[i] = 100 + 20*float64(i%144)/144 + float64(i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forecast.Backtest(f, series, 2000, 60, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecast_HoltWinters(b *testing.B) {
	benchForecaster(b, &forecast.HoltWinters{Period: 144})
}
func BenchmarkForecast_AR(b *testing.B) { benchForecaster(b, &forecast.AR{P: 8}) }
func BenchmarkForecast_SeasonalNaive(b *testing.B) {
	benchForecaster(b, &forecast.SeasonalNaive{Period: 144})
}
func BenchmarkForecast_FFT(b *testing.B) { benchForecaster(b, &forecast.FFTForecaster{K: 4}) }

func BenchmarkCollector_LocalTick(b *testing.B) {
	store := timeseries.NewStore(0)
	agent := collector.NewAgent("bench", 0)
	node := simulation.New(simulation.Config{Nodes: 1, Seed: 1}).Nodes[0]
	agent.AddSource(node.Source())
	agent.AddSink(&collector.StoreSink{Store: store})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Tick(int64(i) * 1000)
	}
}

func BenchmarkCollector_WirePush(b *testing.B) {
	srv, err := wire.NewServer("127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	batch := &wire.Batch{Agent: "bench", Records: []wire.Record{{
		ID:      metric.ID{Name: "power", Labels: metric.NewLabels("node", "n0")},
		Kind:    metric.Gauge,
		Unit:    metric.UnitWatt,
		Samples: []metric.Sample{{T: 1, V: 215.5}},
	}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Send(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulation_StepThroughput measures virtual-time throughput of
// the whole data center model (the substrate everything else stands on).
func BenchmarkSimulation_StepThroughput(b *testing.B) {
	cfg := simulation.DefaultConfig(1)
	cfg.Nodes = 64
	dc := simulation.New(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Step()
	}
}

// --- PR 1 parallel-path benches (sharded store, concurrent grid) ---

// BenchmarkStoreQueryParallel is the headline contention bench: 64 hot
// series under a mixed read/write load from GOMAXPROCS goroutines (1 append
// per 8 ops, the rest range queries). Run with -cpu 1,4 to see the sharded
// store hold throughput where a global-lock store degrades.
func BenchmarkStoreQueryParallel(b *testing.B) {
	store := timeseries.NewStore(0)
	const nSeries = 64
	ids := make([]metric.ID, nSeries)
	for s := 0; s < nSeries; s++ {
		ids[s] = metric.ID{Name: "power", Labels: metric.NewLabels("node", string(rune('a'+s%26))+string(rune('a'+s/26)))}
		for i := 0; i < 10_000; i++ {
			if err := store.Append(ids[s], metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(i%100)); err != nil {
				b.Fatal(err)
			}
		}
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := ctr.Add(1)
			id := ids[n%nSeries]
			if n%8 == 0 {
				// Appends race, so stale timestamps are expected and dropped.
				_ = store.Append(id, metric.Gauge, metric.UnitWatt, 20_000_000+n*1000, float64(n))
			} else {
				if err := store.Each(id, 1_000_000, 2_000_000, func(metric.Sample) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// benchPassiveGrid registers the read-only capability subset (everything
// that declares no writes), so iterations leave the shared archive untouched.
// descriptive.Slowdown is not in it: it declares a job-queue write.
func benchPassiveGrid(b *testing.B) (*oda.Grid, *oda.RunContext) {
	b.Helper()
	ctx := benchCtx(b)
	g := oda.NewGrid()
	for _, c := range []oda.Capability{
		descriptive.PUE{}, descriptive.SIE{}, descriptive.Roofline{},
		diagnostic.InfraAnomaly{}, diagnostic.NodeAnomaly{}, diagnostic.RogueProcess{},
		diagnostic.AppFingerprint{Seed: 1},
		predictive.KPIForecast{}, predictive.SensorForecast{}, predictive.WorkloadForecast{},
		predictive.JobDuration{Seed: 1}, predictive.PowerSpike{},
	} {
		if m := c.Meta(); len(m.Writes) > 0 {
			b.Fatalf("%s writes %v; passive bench grid must not mutate the archive", m.Name, m.Writes)
		}
		if err := g.Register(c); err != nil {
			b.Fatal(err)
		}
	}
	return g, ctx
}

// BenchmarkGridRunAllParallel sweeps the passive capability subset with a
// pool of one worker per logical CPU; compare against
// BenchmarkGridRunAllSerial, the default, for what the pool buys.
func BenchmarkGridRunAllParallel(b *testing.B) {
	g, ctx := benchPassiveGrid(b)
	g.SetWorkers(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := g.RunAll(ctx); len(errs) != 0 {
			b.Fatalf("capability errors: %v", errs)
		}
	}
}

// BenchmarkGridRunAllSerial is the default sweep: registration order, no pool.
func BenchmarkGridRunAllSerial(b *testing.B) {
	g, ctx := benchPassiveGrid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := g.RunAll(ctx); len(errs) != 0 {
			b.Fatalf("capability errors: %v", errs)
		}
	}
}

// benchActuatorGrid models the 11-actuator prescriptive sweep: the same
// capabilities and declared footprints as the real fleet, with each Run
// replaced by a fixed 2ms stand-in for the control decision. serial=true
// makes every actuator a wildcard writer, which is exactly the serial tail
// the footprint scheduler exists to shrink.
func benchActuatorGrid(b *testing.B, serial bool) *oda.Grid {
	b.Helper()
	g := oda.NewGrid()
	for _, c := range []oda.Capability{
		prescriptive.CoolingModeSwitch{}, prescriptive.SetpointOptimizer{},
		prescriptive.AnomalyResponse{}, prescriptive.DVFSGovernor{},
		prescriptive.FanControl{}, prescriptive.PowerBudget{},
		prescriptive.PolicyAdvisor{}, prescriptive.TaskPlacement{},
		prescriptive.AutoTuner{}, prescriptive.CodeRecommend{},
		prescriptive.DemandResponse{},
	} {
		m := c.Meta()
		if serial {
			m.Reads, m.Writes = nil, []oda.Resource{oda.ResWildcard}
		}
		err := g.Register(oda.CapabilityFunc{M: m, Fn: func(ctx *oda.RunContext) (oda.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return oda.Result{}, nil
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	g.SetWorkers(8)
	return g
}

// BenchmarkActuatorSweepSerial is the baseline: 11 wildcard-writing
// actuators degenerate to 11 serial waves (~22ms per sweep).
func BenchmarkActuatorSweepSerial(b *testing.B) {
	g := benchActuatorGrid(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := g.RunAll(&oda.RunContext{}); len(errs) != 0 {
			b.Fatalf("errors: %v", errs)
		}
	}
}

// BenchmarkActuatorSweepFootprints is the same fleet under declared
// footprints: write-disjoint actuators share waves, so the sweep collapses
// to the conflict-graph depth instead of the actuator count.
func BenchmarkActuatorSweepFootprints(b *testing.B) {
	g := benchActuatorGrid(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs := g.RunAll(&oda.RunContext{}); len(errs) != 0 {
			b.Fatalf("errors: %v", errs)
		}
	}
}
