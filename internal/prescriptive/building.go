// Package prescriptive implements the framework's fourth analytics row:
// "what should we do about it?". Its capabilities actuate the virtual data
// center's knobs: cooling-mode switching and setpoint optimization on the
// facility, GEOPM-style DVFS governing and PID fan control on nodes, power
// budgets and policy advice on the scheduler, and application auto-tuning
// plus code recommendations for users.
//
// Each capability works both ways the paper describes: as a one-shot
// Run(ctx) that takes a single control decision (recommendation mode) and
// as a simulation.Controller attached to the live system (automated mode).
package prescriptive

import (
	"fmt"
	"math"

	"repro/internal/facility"
	"repro/internal/forecast"
	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/stats"
)

func cell(p oda.Pillar, t oda.Type) oda.Cell { return oda.Cell{Pillar: p, Type: t} }

// CoolingModeSwitch decides between free cooling and chiller operation
// proactively: it forecasts the next control window's outdoor temperature
// from recent telemetry and switches modes ahead of the weather (Jiang et
// al.'s fine-grained cooling economy, made proactive per §V-A).
type CoolingModeSwitch struct {
	// LookaheadSamples of weather forecast (default 30).
	LookaheadSamples int
}

// Meta implements oda.Capability.
func (CoolingModeSwitch) Meta() oda.Meta {
	return oda.Meta{
		Name:        "cooling-mode-switch",
		Description: "proactive switching between free cooling and chiller",
		Cells: []oda.Cell{
			cell(oda.BuildingInfrastructure, oda.Prescriptive),
			cell(oda.SystemHardware, oda.Prescriptive),
		},
		Refs:   []string{"[12]"},
		Reads:  []oda.Resource{oda.StoreResource("facility_outdoor_temp")},
		Writes: []oda.Resource{oda.ResCooling},
	}
}

// decide returns the recommended mode given forecast outdoor temperatures.
func (c CoolingModeSwitch) decide(dc *simulation.DataCenter, outdoorForecast []float64) facility.CoolingMode {
	approach := dc.Facility.Cfg.FreeCoolingApproach
	setpoint := dc.Facility.Setpoint()
	// Free cooling only if the whole window stays inside the envelope,
	// with half a degree of margin against forecast error.
	for _, t := range outdoorForecast {
		if t > setpoint-approach-0.5 {
			return facility.ModeChiller
		}
	}
	return facility.ModeFree
}

// forecastOutdoor extrapolates outdoor temperature from the archive:
// Holt-Winters with a daily season when two days of history exist, plain
// Holt otherwise.
func forecastOutdoor(ctx *oda.RunContext, h int) ([]float64, error) {
	id := metric.ID{Name: "facility_outdoor_temp_celsius", Labels: metric.NewLabels("site", "vdc")}
	vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, 0)
	if err != nil || len(vals) < 10 {
		return nil, fmt.Errorf("prescriptive: insufficient weather history")
	}
	var model forecast.Forecaster
	if len(vals) >= 2*1440 {
		model = &forecast.HoltWinters{Period: 1440}
	} else {
		model = &forecast.Holt{}
	}
	if err := model.Fit(vals); err != nil {
		return nil, err
	}
	return model.Forecast(h), nil
}

// Run implements oda.Capability: one proactive mode decision, applied.
func (c CoolingModeSwitch) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	h := c.LookaheadSamples
	if h <= 0 {
		h = 30
	}
	fc, err := forecastOutdoor(ctx, h)
	if err != nil {
		return oda.Result{}, err
	}
	mode := c.decide(dc, fc)
	dc.Facility.SetMode(mode)
	isFree := 0.0
	if mode == facility.ModeFree {
		isFree = 1
	}
	return oda.Result{
		Summary: fmt.Sprintf("forecast outdoor %.1f..%.1fC -> cooling mode %s",
			minOf(fc), maxOf(fc), mode),
		Values: map[string]float64{"mode_free": isFree, "forecast_max_c": maxOf(fc)},
	}, nil
}

// Controller returns the automated form for attachment to the simulation.
func (c CoolingModeSwitch) Controller() simulation.Controller {
	h := c.LookaheadSamples
	if h <= 0 {
		h = 30
	}
	return simulation.ControllerFunc{
		ControllerName: "cooling-mode-switch",
		Fn: func(dc *simulation.DataCenter, now int64) {
			ctx := &oda.RunContext{Store: dc.Store, From: now - 24*3600*1000, To: now + 1, System: dc}
			fc, err := forecastOutdoor(ctx, h)
			if err != nil {
				return // not enough history yet; stay as configured
			}
			dc.Facility.SetMode(c.decide(dc, fc))
		},
	}
}

// SetpointOptimizer picks the warmest supply-temperature setpoint that
// keeps the hottest node under a thermal ceiling: warmer water means a
// better chiller COP and more free-cooling hours (the Conficoni/Kjaergaard
// setpoint-tuning cell). The thermal margin is derived from measured
// node-over-supply temperature deltas.
type SetpointOptimizer struct {
	// MaxNodeTemp is the ceiling (default 78 degC).
	MaxNodeTemp float64
	// Margin in degC held back against load growth (default 3).
	Margin float64
}

// Meta implements oda.Capability.
func (SetpointOptimizer) Meta() oda.Meta {
	return oda.Meta{
		Name:        "setpoint-opt",
		Description: "supply setpoint optimization under node thermal ceilings",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Prescriptive)},
		Refs:        []string{"[18]", "[37]"},
		Reads:       []oda.Resource{oda.StoreResource("node_cpu_temp")},
		Writes:      []oda.Resource{oda.ResCooling},
	}
}

// decide computes the incremental setpoint adjustment from recent thermal
// headroom: the asymmetric law raises the setpoint slowly while the fleet
// runs cool and drops it quickly (by the full violation) when the hottest
// node approaches the ceiling. Only the recent past (last 30 minutes of
// the window) feeds the decision, so transients clear quickly.
func (c SetpointOptimizer) decide(ctx *oda.RunContext, dc *simulation.DataCenter) (newSetpoint, worstTemp float64, err error) {
	maxTemp := c.MaxNodeTemp
	if maxTemp <= 0 {
		maxTemp = 78
	}
	margin := c.Margin
	if margin <= 0 {
		margin = 3
	}
	from := ctx.To - 30*60*1000
	if from < ctx.From {
		from = ctx.From
	}
	// Medians ignore the minutes-long spike a fresh job causes before the
	// fan loop catches up; only sustained heat moves the setpoint down.
	worst := 0.0
	for _, id := range ctx.Store.Select("node_cpu_temp_celsius", nil) {
		vals, err := ctx.Store.SeriesValues(id, from, ctx.To, 0)
		if err != nil || len(vals) == 0 {
			continue
		}
		med, _ := stats.Median(vals)
		if med > worst {
			worst = med
		}
	}
	if worst == 0 {
		return 0, 0, fmt.Errorf("prescriptive: no node temperature telemetry")
	}
	headroom := maxTemp - margin - worst
	step := stats.Clamp(headroom, -3, 1) // drop faster than raising
	return stats.Clamp(dc.Facility.Setpoint()+step, 14, 35), worst, nil
}

// Run implements oda.Capability: one setpoint adjustment, applied.
func (c SetpointOptimizer) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	setpoint, worst, err := c.decide(ctx, dc)
	if err != nil {
		return oda.Result{}, err
	}
	before := dc.Facility.Setpoint()
	dc.Facility.SetSetpoint(setpoint)
	return oda.Result{
		Summary: fmt.Sprintf("hottest node at %.1fC (median, 30m); setpoint %.1f -> %.1fC",
			worst, before, dc.Facility.Setpoint()),
		Values: map[string]float64{
			"setpoint_c": dc.Facility.Setpoint(), "worst_temp_c": worst,
			"previous_c": before,
		},
	}, nil
}

// Controller returns the automated form.
func (c SetpointOptimizer) Controller() simulation.Controller {
	return simulation.ControllerFunc{
		ControllerName: "setpoint-opt",
		Fn: func(dc *simulation.DataCenter, now int64) {
			ctx := &oda.RunContext{Store: dc.Store, From: now - 6*3600*1000, To: now + 1, System: dc}
			if sp, _, err := c.decide(ctx, dc); err == nil {
				dc.Facility.SetSetpoint(sp)
			}
		},
	}
}

// AnomalyResponse converts upstream diagnostic findings into safe-state
// actions: on anomaly evidence it forces conservative cooling (chiller,
// cold setpoint, max fans on flagged nodes), the Bortot/Bodik automated
// response cell. It consumes the upstream pipeline result when present.
type AnomalyResponse struct{}

// Meta implements oda.Capability.
func (AnomalyResponse) Meta() oda.Meta {
	return oda.Meta{
		Name:        "anomaly-response",
		Description: "automated safe-state response to diagnosed anomalies",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Prescriptive)},
		Refs:        []string{"[38]", "[39]"},
		Writes:      []oda.Resource{oda.ResCooling}, // safe state: mode, setpoint, fans
	}
}

// Run implements oda.Capability. With an upstream diagnostic result (from
// a Pipeline) it acts on its counts; standalone it re-runs nothing and
// reports a no-op.
func (AnomalyResponse) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	anomalies := 0.0
	if ctx.Upstream != nil {
		anomalies = ctx.Upstream.Value("anomalous_nodes") + ctx.Upstream.Value("events_total") +
			ctx.Upstream.Value("rogue_nodes")
	}
	if anomalies == 0 {
		return oda.Result{
			Summary: "no upstream anomalies; no action",
			Values:  map[string]float64{"actions": 0},
		}, nil
	}
	// Safe state: conservative cooling while operators investigate.
	dc.Facility.SetMode(facility.ModeChiller)
	dc.Facility.SetSetpoint(18)
	for _, n := range dc.Nodes {
		n.SetFanSpeed(0.9)
	}
	return oda.Result{
		Summary: fmt.Sprintf("%.0f anomaly signals -> safe state: chiller, 18C setpoint, fans 90%%", anomalies),
		Values:  map[string]float64{"actions": 3, "signals": anomalies},
	}, nil
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
