package simulation

import (
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Nodes = 16
	cfg.Workload.MaxNodes = 8
	cfg.Workload.MeanInterarrival = 120
	return cfg
}

func TestSimulationRunsAndCollects(t *testing.T) {
	dc := New(smallConfig(1))
	dc.RunFor(2 * 3600) // 2 virtual hours
	if dc.Now() != 2*3600*1000 {
		t.Fatalf("clock = %d", dc.Now())
	}
	if dc.SubmittedJobs == 0 {
		t.Fatal("no jobs submitted")
	}
	if dc.Store.NumSeries() == 0 || dc.Store.NumSamples() == 0 {
		t.Fatal("no telemetry collected")
	}
	// Expect node power series for every node.
	ids := dc.Store.Select("node_power_watts", nil)
	if len(ids) != 16 {
		t.Fatalf("power series = %d", len(ids))
	}
	// PUE telemetry exists and is plausible.
	pueID := metric.ID{Name: "facility_pue", Labels: metric.NewLabels("site", "vdc")}
	samples, err := dc.Store.SeriesValues(pueID, math.MinInt64, math.MaxInt64, 0)
	if err != nil || len(samples) == 0 {
		t.Fatalf("no PUE telemetry: %v", err)
	}
	for _, v := range samples {
		if v != 0 && (v < 1 || v > 3) {
			t.Fatalf("implausible PUE %v", v)
		}
	}
}

func TestSimulationDeterminism(t *testing.T) {
	a := New(smallConfig(7))
	b := New(smallConfig(7))
	a.RunFor(3600)
	b.RunFor(3600)
	if a.SubmittedJobs != b.SubmittedJobs {
		t.Fatalf("submitted: %d vs %d", a.SubmittedJobs, b.SubmittedJobs)
	}
	if a.ITPower() != b.ITPower() {
		t.Fatalf("IT power: %v vs %v", a.ITPower(), b.ITPower())
	}
	if a.Store.NumSamples() != b.Store.NumSamples() {
		t.Fatalf("samples: %d vs %d", a.Store.NumSamples(), b.Store.NumSamples())
	}
	ma := a.Cluster.MetricsAt(a.Now())
	mb := b.Cluster.MetricsAt(b.Now())
	if ma.FinishedJobs != mb.FinishedJobs || ma.MeanWaitSec != mb.MeanWaitSec {
		t.Fatalf("metrics differ: %+v vs %+v", ma, mb)
	}
}

func TestJobsFlowThroughSystem(t *testing.T) {
	cfg := smallConfig(3)
	cfg.Workload.MeanInterarrival = 60
	dc := New(cfg)
	dc.RunFor(12 * 3600)
	m := dc.Cluster.MetricsAt(dc.Now())
	if m.FinishedJobs == 0 {
		t.Fatal("no jobs finished in 12h")
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Fatalf("utilization = %v", m.Utilization)
	}
	// Finished jobs have sane lifecycle timestamps and stretched runtimes.
	for _, j := range dc.Cluster.Finished() {
		if j.StartTime < j.SubmitTime || j.EndTime < j.StartTime {
			t.Fatalf("job lifecycle broken: %+v", j)
		}
		if j.DoneWork < j.TotalWork && dc.KilledJobs == 0 {
			t.Fatalf("unfinished job in finished list: %+v", j)
		}
		// Runtime can't beat ideal (physics can only slow jobs down);
		// allow one step of discretization slack.
		if j.DoneWork >= j.TotalWork && j.RuntimeSeconds() < j.IdealRuntime()-dc.Cfg.StepSeconds {
			t.Fatalf("job ran faster than ideal: run=%v ideal=%v", j.RuntimeSeconds(), j.IdealRuntime())
		}
	}
}

func TestITPowerTracksLoad(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Workload.MeanInterarrival = 30 // busy machine
	dc := New(cfg)
	idle := float64(len(dc.Nodes)) * 95 // roughly idle + fans
	dc.RunFor(4 * 3600)
	if p := dc.ITPower(); p <= idle {
		t.Fatalf("busy machine draws %v W, idle floor %v W", p, idle)
	}
	st := dc.Facility.State()
	if st.PUE <= 1 || st.PUE > 2 {
		t.Fatalf("facility PUE = %v", st.PUE)
	}
	if dc.Facility.CumulativePUE() <= 1 {
		t.Fatal("cumulative PUE not accumulated")
	}
}

func TestControllerInvocation(t *testing.T) {
	dc := New(smallConfig(9))
	var calls int
	var lastNow int64
	dc.AddController(ControllerFunc{
		ControllerName: "probe",
		Fn: func(d *DataCenter, now int64) {
			calls++
			lastNow = now
		},
	})
	dc.RunFor(3600)
	// Control cadence 300 s -> ~12 calls per hour.
	if calls < 10 || calls > 14 {
		t.Fatalf("controller calls = %d", calls)
	}
	if lastNow == 0 {
		t.Fatal("controller never saw time")
	}
}

func TestAnomalyInjectionPersists(t *testing.T) {
	dc := New(smallConfig(11))
	if err := dc.InjectAnomaly(3, "power"); err != nil {
		t.Fatal(err)
	}
	dc.RunFor(1800)
	n := dc.Nodes[3]
	if n.LoadState().Utilization != 1 || n.LoadState().ComputeFrac != 1 {
		t.Fatalf("power anomaly not persistent: %+v", n.LoadState())
	}
	// An injected miner node draws clearly more than an idle node.
	idleIdx := -1
	for i, other := range dc.Nodes {
		if i != 3 && other.LoadState().Utilization == 0 {
			idleIdx = i
			break
		}
	}
	if idleIdx >= 0 && n.Power() <= dc.Nodes[idleIdx].Power() {
		t.Fatalf("miner %v W <= idle %v W", n.Power(), dc.Nodes[idleIdx].Power())
	}
	dc.ClearAnomaly(3)
	dc.RunFor(60)
	if dc.Nodes[3].LoadState().ComputeFrac == 1 && dc.Nodes[3].LoadState().Utilization == 1 {
		// Could legitimately be running a compute job; check schedule.
		found := false
		for _, a := range dc.Cluster.RunningJobs() {
			for _, idx := range a.Nodes {
				if idx == 3 {
					found = true
				}
			}
		}
		if !found {
			t.Fatal("anomaly not cleared")
		}
	}
	if err := dc.InjectAnomaly(99, "power"); err == nil {
		t.Fatal("out-of-range injection should error")
	}
	if err := dc.InjectAnomaly(0, "bogus"); err == nil {
		t.Fatal("unknown anomaly should error")
	}
}

func TestThermalAnomalyRaisesTemperature(t *testing.T) {
	cfg := smallConfig(13)
	cfg.Workload.MeanInterarrival = 30
	dc := New(cfg)
	_ = dc.InjectAnomaly(0, "thermal")
	_ = dc.InjectAnomaly(0, "power") // heat it while fans are pinned? keep thermal only
	dc.ClearAnomaly(0)
	_ = dc.InjectAnomaly(0, "thermal")
	dc.RunFor(2 * 3600)
	victim := dc.Nodes[0]
	if victim.Failed() {
		return // extreme path: failure is also a valid outcome
	}
	var maxOther float64
	for i, n := range dc.Nodes[1:] {
		_ = i
		if n.FanSpeed() > 0.1 && n.Temperature() > maxOther {
			maxOther = n.Temperature()
		}
	}
	if victim.FanSpeed() != 0.1 {
		t.Fatalf("fan not pinned: %v", victim.FanSpeed())
	}
}

func TestFailuresEventuallyRepair(t *testing.T) {
	cfg := smallConfig(17)
	cfg.RepairHours = 0.5
	dc := New(cfg)
	// Force a failure via extreme thermal anomaly on a loaded node.
	_ = dc.InjectAnomaly(2, "power")
	_ = dc.InjectAnomaly(2, "thermal")
	// Run until it fails or we give up.
	for i := 0; i < 24*360 && !dc.Nodes[2].Failed(); i++ {
		dc.Step()
	}
	if !dc.Nodes[2].Failed() {
		t.Skip("node survived extreme conditions under this seed")
	}
	dc.ClearAnomaly(2)
	dc.RunFor(3 * 3600)
	if dc.Nodes[2].Failed() {
		t.Fatal("node never repaired")
	}
	if dc.FailureEvents == 0 {
		// The failure might have occurred while idle (no running job), in
		// which case KilledJobs stays 0 but the node still failed; the
		// repair map path must still have cleared it, which we checked.
		t.Log("failure occurred outside a job allocation")
	}
}

func TestRunUntil(t *testing.T) {
	dc := New(smallConfig(19))
	dc.RunUntil(90_000)
	if dc.Now() < 90_000 {
		t.Fatalf("RunUntil stopped at %d", dc.Now())
	}
	if dc.NodeByName("n003") == nil {
		t.Fatal("NodeByName failed")
	}
	if dc.NodeByName("zz") != nil {
		t.Fatal("NodeByName should return nil for unknown")
	}
}

func TestPowerAwarePolicyIntegration(t *testing.T) {
	cfg := smallConfig(23)
	cfg.Policy = scheduler.PowerAware{}
	dc := New(cfg)
	dc.Cluster.PowerBudgetW = 2000 // tight: ~5 busy nodes of headroom
	dc.Cluster.EstimatePowerW = func(j *workload.Job) float64 { return float64(j.Nodes) * 330 }
	dc.RunFor(6 * 3600)
	// The cap keeps IT power near/below budget + idle baseline.
	idleFloor := float64(len(dc.Nodes)) * 95
	if p := dc.ITPower(); p > idleFloor+2*2000 {
		t.Fatalf("power-aware budget ignored: %v W", p)
	}
}

func TestTraceReplay(t *testing.T) {
	// Generate a workload with one center, record it, replay it in another.
	src := New(smallConfig(31))
	src.RunFor(4 * 3600)
	var trace []*workload.Job
	for _, rec := range src.Allocations() {
		trace = append(trace, rec.Job)
	}
	if len(trace) < 3 {
		t.Skip("too few jobs recorded under this seed")
	}

	cfg := smallConfig(99) // different seed: generator must be ignored
	cfg.TraceJobs = trace
	dc := New(cfg)
	dc.RunFor(4 * 3600)
	if dc.SubmittedJobs == 0 {
		t.Fatal("trace replay submitted nothing")
	}
	// Replay submits exactly the trace jobs due in the window, by ID.
	want := map[string]bool{}
	for _, j := range trace {
		if j.SubmitTime <= dc.Now() {
			want[j.ID] = true
		}
	}
	if dc.SubmittedJobs != len(want) {
		t.Fatalf("submitted %d, want %d", dc.SubmittedJobs, len(want))
	}
	for _, rec := range dc.Allocations() {
		if !want[rec.Job.ID] {
			t.Fatalf("unexpected job %s in replay", rec.Job.ID)
		}
	}
	// The caller's trace is not mutated by the replay.
	for _, j := range trace {
		if j.DoneWork != j.TotalWork && j.EndTime == 0 && j.StartTime == 0 {
			t.Fatal("trace job looks reset — deep copy missing?")
		}
	}
}

// TestFailNodesCorrelated: a forced rack-scale failure takes its nodes
// through the organic failure path — offlined, jobs killed, repair
// scheduled — and two runs injecting the same correlated failure at the
// same virtual time produce byte-identical telemetry.
func TestFailNodesCorrelated(t *testing.T) {
	run := func() *DataCenter {
		cfg := smallConfig(11)
		cfg.RepairHours = 0.1 // 6 virtual minutes: repairs land inside the run
		dc := New(cfg)
		dc.RunFor(600)
		if n := dc.FailNodes(0, 8); n != 8 {
			t.Fatalf("FailNodes failed %d nodes, want 8", n)
		}
		dc.RunFor(1200)
		return dc
	}
	dc := run()
	if dc.FailureEvents < 8 {
		t.Fatalf("correlated failure produced %d failure events, want >= 8", dc.FailureEvents)
	}
	for i := 0; i < 8; i++ {
		if dc.Nodes[i].Failed() {
			t.Fatalf("node %d still failed after the repair window", i)
		}
	}
	// Clamping: out-of-range injections fail only what exists, and
	// already-failed nodes are not double-counted.
	if n := dc.FailNodes(len(dc.Nodes)-2, 10); n != 2 {
		t.Fatalf("clamped FailNodes = %d, want 2", n)
	}
	if n := dc.FailNodes(len(dc.Nodes)-2, 10); n != 0 {
		t.Fatalf("re-failing failed nodes counted %d", n)
	}

	other := run()
	if dc.Store.NumSamples() != other.Store.NumSamples() || dc.SubmittedJobs != other.SubmittedJobs ||
		dc.KilledJobs != other.KilledJobs || dc.FailureEvents != other.FailureEvents {
		t.Fatalf("correlated-failure runs diverged: samples %d/%d jobs %d/%d killed %d/%d failures %d/%d",
			dc.Store.NumSamples(), other.Store.NumSamples(), dc.SubmittedJobs, other.SubmittedJobs,
			dc.KilledJobs, other.KilledJobs, dc.FailureEvents, other.FailureEvents)
	}
}
