package predictive

import (
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/scheduler"
	"repro/internal/simulation"
	"repro/internal/workload"
)

// The predictive tests share one deterministic 36-hour run: long enough for
// daily seasonality (weather, arrivals) and a large finished-job corpus.
var dcCache *simulation.DataCenter

func predCtx(t *testing.T) *oda.RunContext {
	t.Helper()
	if dcCache == nil {
		cfg := simulation.DefaultConfig(404)
		cfg.Nodes = 16
		cfg.Workload.MaxNodes = 8
		cfg.Workload.MeanInterarrival = 60
		dc := simulation.New(cfg)
		dc.RunFor(36 * 3600)
		dcCache = dc
	}
	return &oda.RunContext{Store: dcCache.Store, From: 0, To: dcCache.Now() + 1, System: dcCache}
}

func TestKPIForecast(t *testing.T) {
	res, err := KPIForecast{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("points") == 0 {
		t.Fatal("no forecast points scored")
	}
	if res.Value("hw_mae") <= 0 {
		t.Fatalf("hw_mae = %v", res.Value("hw_mae"))
	}
	// PUE is a small number; errors should be small in absolute terms.
	if res.Value("hw_mae") > 0.2 {
		t.Fatalf("PUE forecast MAE %v implausibly large", res.Value("hw_mae"))
	}
}

func TestCoolingModelFit(t *testing.T) {
	res, err := CoolingModel{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Cooling power is mechanically derived from IT power and weather in
	// the simulator, so the regression must fit well.
	if r2 := res.Value("r2"); r2 < 0.7 {
		t.Fatalf("cooling model R2 = %v", r2)
	}
	// More IT load -> more cooling power.
	if res.Value("coef_it") <= 0 {
		t.Fatalf("coef_it = %v, expected positive", res.Value("coef_it"))
	}
}

func TestPowerSpike(t *testing.T) {
	res, err := PowerSpike{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("threshold_w") <= 0 {
		t.Fatal("no threshold derived")
	}
	// Forecast error should be bounded relative to the plant's scale.
	if res.Value("mae_w") > res.Value("threshold_w")*20 {
		t.Fatalf("spike forecast MAE %v vs threshold %v", res.Value("mae_w"), res.Value("threshold_w"))
	}
}

func TestSensorForecastBeatsOrMatchesNaive(t *testing.T) {
	res, err := SensorForecast{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("nodes") == 0 {
		t.Fatal("no nodes backtested")
	}
	// AR should not be dramatically worse than naive on temperature.
	if res.Value("ar_mae") > 3*res.Value("naive_mae")+0.5 {
		t.Fatalf("AR MAE %v vs naive %v", res.Value("ar_mae"), res.Value("naive_mae"))
	}
}

func TestThermalRisk(t *testing.T) {
	res, err := ThermalRisk{HotCelsius: 60}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("samples") < 50 {
		t.Fatalf("samples = %v", res.Value("samples"))
	}
	// If labels were informative, the model must separate classes.
	if res.Value("positives") > 0 && res.Value("positives") < res.Value("samples") {
		if res.Value("separation") <= 0 {
			t.Fatalf("risk model does not separate: %+v", res.Values)
		}
		if res.Value("accuracy") < 0.6 {
			t.Fatalf("accuracy = %v", res.Value("accuracy"))
		}
	}
}

func TestInstMix(t *testing.T) {
	res, err := InstMix{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("intervals") == 0 {
		t.Fatal("no intervals predicted")
	}
	if res.Value("pred_mae") <= 0 {
		t.Fatalf("pred_mae = %v", res.Value("pred_mae"))
	}
}

func TestSchedSimulate(t *testing.T) {
	res, err := SchedSimulate{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("jobs") < 5 {
		t.Fatal("too few jobs replayed")
	}
	for _, p := range []string{"fcfs", "easy", "plan-based"} {
		if _, ok := res.Values["wait_"+p]; !ok {
			t.Fatalf("missing policy %s in %v", p, res.Values)
		}
	}
	// EASY should not be worse than FCFS on mean wait.
	if res.Values["wait_easy"] > res.Values["wait_fcfs"]*1.05+1 {
		t.Fatalf("EASY wait %v worse than FCFS %v", res.Values["wait_easy"], res.Values["wait_fcfs"])
	}
}

func TestReplayIsNonDestructive(t *testing.T) {
	jobs := workload.NewGenerator(workload.DefaultGeneratorConfig(5, 8)).GenerateUntil(0, 2*3600*1000)
	before := make([]workload.Job, len(jobs))
	for i, j := range jobs {
		before[i] = *j
	}
	_ = Replay(jobs, 16, scheduler.EASY{})
	for i, j := range jobs {
		if *j != before[i] {
			t.Fatalf("replay mutated caller job %d", i)
		}
	}
}

func TestWorkloadForecast(t *testing.T) {
	res, err := WorkloadForecast{}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("hours") < 30 {
		t.Fatalf("hours = %v", res.Value("hours"))
	}
	if res.Value("model_mae") <= 0 {
		t.Fatal("no model error computed")
	}
}

func TestJobDuration(t *testing.T) {
	res, err := JobDuration{Seed: 1}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// The learned model must beat the user's walltime request — the
	// paper-wide claim of the job-duration prediction literature.
	if res.Value("model_mae_s") >= res.Value("request_mae_s") {
		t.Fatalf("model MAE %v >= request MAE %v", res.Value("model_mae_s"), res.Value("request_mae_s"))
	}
	pred, err := JobDuration{Seed: 1}.TrainedPredictor(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	j := &workload.Job{User: "user01", Nodes: 4, ReqWalltime: 7200, SubmitTime: 12 * 3600 * 1000, MemoryGiBPerNode: 32}
	if v := pred(j); v <= 0 || v > 24*3600 {
		t.Fatalf("predicted runtime = %v", v)
	}
}

func TestResourceUsage(t *testing.T) {
	res, err := ResourceUsage{Seed: 1}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("jobs") < 20 {
		t.Fatal("too few jobs")
	}
	if res.Value("model_mae_w") <= 0 {
		t.Fatal("no error computed")
	}
	est, err := ResourceUsage{Seed: 1}.TrainedEstimator(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	j := &workload.Job{User: "user01", Nodes: 4, ReqWalltime: 7200, SubmitTime: 12 * 3600 * 1000, MemoryGiBPerNode: 32}
	if v := est(j); v < 4*90 || v > 4*450 {
		t.Fatalf("estimated job power = %v W for 4 nodes", v)
	}
}

func TestRegister(t *testing.T) {
	g := oda.NewGrid()
	if err := Register(g); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 10 {
		t.Fatalf("registered %d", g.Len())
	}
	for _, p := range oda.Pillars() {
		if len(g.At(oda.Cell{Pillar: p, Type: oda.Predictive})) == 0 {
			t.Fatalf("pillar %s predictive cell empty", p)
		}
	}
}

func TestThermalRiskDegenerateLabels(t *testing.T) {
	// A threshold no node ever crosses yields the degenerate-label report,
	// not an error: the capability must stay usable on healthy fleets.
	res, err := ThermalRisk{HotCelsius: 500}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value("positives") != 0 {
		t.Fatalf("positives = %v at 500C threshold", res.Value("positives"))
	}
	if res.Summary == "" {
		t.Fatal("degenerate case needs a summary")
	}
}

func TestThermalRiskMissingTelemetry(t *testing.T) {
	dc := simulation.New(simulation.Config{Nodes: 2, Seed: 1})
	ctx := &oda.RunContext{Store: dc.Store, From: 0, To: 1, System: dc}
	if _, err := (ThermalRisk{}).Run(ctx); err == nil {
		t.Fatal("no telemetry should error")
	}
	if _, err := (SensorForecast{}).Run(ctx); err == nil {
		t.Fatal("no telemetry should error")
	}
	if _, err := (InstMix{}).Run(ctx); err == nil {
		t.Fatal("no signatures should error")
	}
	if _, err := (KPIForecast{}).Run(ctx); err == nil {
		t.Fatal("no KPI series should error")
	}
	if _, err := (PowerSpike{}).Run(ctx); err == nil {
		t.Fatal("no power series should error")
	}
}

func TestSchedSimulateCustomPolicies(t *testing.T) {
	res, err := SchedSimulate{Policies: []scheduler.Policy{scheduler.FCFS{}}}.Run(predCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Values["wait_fcfs"]; !ok {
		t.Fatalf("missing fcfs result: %v", res.Values)
	}
	if _, ok := res.Values["wait_easy"]; ok {
		t.Fatal("easy should not run when not requested")
	}
}

func TestWorkloadForecastSeasonalBranch(t *testing.T) {
	// 60 hours gives > 2 full daily seasons of hourly buckets, exercising
	// the Holt-Winters path rather than the short-window fallback.
	cfg := simulation.DefaultConfig(321)
	cfg.Nodes = 8
	cfg.Workload.MaxNodes = 4
	cfg.Workload.MeanInterarrival = 120
	dc := simulation.New(cfg)
	dc.RunFor(60 * 3600)
	ctx := &oda.RunContext{Store: dc.Store, From: 0, To: dc.Now() + 1, System: dc}
	res, err := WorkloadForecast{}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Values["seasonal_naive_mae"]; !ok {
		t.Fatalf("seasonal branch not taken: %v", res.Values)
	}
	if res.Value("mean_rate") <= 0 {
		t.Fatal("no arrival rate computed")
	}
}

// TestIntensitySeriesOverwritesPowerInOrder: intensitySeries writes each
// busy sample's signature over the power values it streams past; it must
// equal the signature computed from separate power and utilization slices.
func TestIntensitySeriesOverwritesPowerInOrder(t *testing.T) {
	ctx := predCtx(t)
	ids := ctx.Store.Select("node_power_watts", nil)
	if len(ids) == 0 {
		t.Fatal("no power series")
	}
	for _, id := range ids {
		power, err1 := ctx.Store.SeriesValues(id, ctx.From, ctx.To, 0)
		util, err2 := ctx.Store.SeriesValues(metric.ID{Name: "node_utilization", Labels: id.Labels}, ctx.From, ctx.To, 0)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		var want []float64
		for i := 0; i < min(len(power), len(util)); i++ {
			if util[i] >= 5 {
				want = append(want, (power[i]-95)/util[i])
			}
		}
		got := intensitySeries(ctx, id.Labels)
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s: %d signature values, want %d (> 0)", id.Key(), len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: signature %d = %v, want %v", id.Key(), i, got[i], want[i])
			}
		}
	}
	if got := intensitySeries(ctx, metric.NewLabels("node", "absent")); got != nil {
		t.Fatalf("absent node: %v, want nil", got)
	}
}
