package prescriptive

import (
	"fmt"

	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/stats"
)

// DVFSGovernor is a GEOPM-style energy-aware frequency governor: nodes
// running memory/IO-stalled work (low dynamic-power-per-utilization
// signature) are clocked down — their progress barely depends on frequency
// while dynamic power falls cubically — and compute-bound nodes stay at
// full clock. The signature threshold separates the two regimes.
type DVFSGovernor struct {
	// IntensityThreshold in W per utilization point separating stalled
	// from compute-bound signatures (default 2.2, the simulator's
	// memory-vs-compute boundary).
	IntensityThreshold float64
	// LowFreqIndex is the P-state used for stalled work (default 1).
	LowFreqIndex int
}

// Meta implements oda.Capability.
func (DVFSGovernor) Meta() oda.Meta {
	return oda.Meta{
		Name:        "dvfs-governor",
		Description: "energy-aware per-node CPU frequency tuning from power signatures",
		Cells: []oda.Cell{
			cell(oda.SystemHardware, oda.Prescriptive),
			cell(oda.SystemHardware, oda.Predictive),
		},
		Refs:   []string{"[11]", "[24]", "[40]"},
		Reads:  []oda.Resource{oda.StoreResource("node_power"), oda.StoreResource("node_utilization")},
		Writes: []oda.Resource{oda.ResNodeDVFS},
	}
}

// decide inspects a node's recent signature and returns the target P-state
// index (and whether a decision was possible).
func (g DVFSGovernor) decide(ctx *oda.RunContext, dc *simulation.DataCenter, nodeIdx int) (int, bool) {
	thr := g.IntensityThreshold
	if thr <= 0 {
		thr = 2.2
	}
	low := g.LowFreqIndex
	if low < 0 {
		low = 1
	}
	n := dc.Nodes[nodeIdx]
	if n.LoadState().Utilization <= 0 {
		return 0, false // idle: leave alone (idle power is freq-insensitive here)
	}
	labels := metric.NewLabels("node", n.Name(), "rack", n.Cfg.Rack)
	// The signature pairs power and utilization samples in time order.
	power, err := ctx.Store.SeriesValues(metric.ID{Name: "node_power_watts", Labels: labels}, ctx.From, ctx.To, 0)
	if err != nil {
		return 0, false
	}
	util, err := ctx.Store.SeriesValues(metric.ID{Name: "node_utilization", Labels: labels}, ctx.From, ctx.To, 0)
	if err != nil {
		return 0, false
	}
	var sig stats.Online
	for i, u := range util[:min(len(power), len(util))] {
		if u < 5 {
			continue
		}
		// Normalize the cubic frequency effect out of the signature so a
		// node we already clocked down is still recognized correctly.
		fr := n.Frequency() / n.MaxFrequency()
		sig.Add((power[i] - 95) / u / (fr * fr * fr))
	}
	if sig.N() == 0 {
		return 0, false
	}
	if sig.Mean() < thr {
		if low >= n.NumFrequencies() {
			low = n.NumFrequencies() - 1
		}
		return low, true
	}
	return n.NumFrequencies() - 1, true
}

// Run implements oda.Capability: one governing pass over the fleet.
func (g DVFSGovernor) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	var lowered, raised, unchanged, skipped int
	for idx := range dc.Nodes {
		target, ok := g.decide(ctx, dc, idx)
		if !ok {
			skipped++
			continue
		}
		n := dc.Nodes[idx]
		switch {
		case target < n.FrequencyIndex():
			lowered++
		case target > n.FrequencyIndex():
			raised++
		default:
			unchanged++
		}
		n.SetFrequencyIndex(target)
	}
	return oda.Result{
		Summary: fmt.Sprintf("DVFS pass: %d nodes clocked down, %d restored, %d unchanged, %d idle/unknown",
			lowered, raised, unchanged, skipped),
		Values: map[string]float64{
			"lowered": float64(lowered), "raised": float64(raised),
			"unchanged": float64(unchanged), "skipped": float64(skipped),
		},
	}, nil
}

// Controller returns the automated governor.
func (g DVFSGovernor) Controller() simulation.Controller {
	return simulation.ControllerFunc{
		ControllerName: "dvfs-governor",
		Fn: func(dc *simulation.DataCenter, now int64) {
			ctx := &oda.RunContext{Store: dc.Store, From: now - 30*60*1000, To: now + 1, System: dc}
			for idx := range dc.Nodes {
				if target, ok := g.decide(ctx, dc, idx); ok {
					dc.Nodes[idx].SetFrequencyIndex(target)
				}
			}
		},
	}
}

// FanControl is a proportional thermal controller: each node's fan duty
// tracks its temperature error against a target, trading fan power (cubic
// in speed) against silicon temperature — the hardware-knob-tuning cell.
type FanControl struct {
	// TargetCelsius per node (default 68).
	TargetCelsius float64
	// Gain is duty change per degC of error (default 0.02).
	Gain float64
}

// Meta implements oda.Capability.
func (FanControl) Meta() oda.Meta {
	return oda.Meta{
		Name:        "fan-control",
		Description: "proportional per-node fan-speed control toward a thermal target",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Prescriptive)},
		Refs:        []string{"[20]", "[25]", "[41]"},
		Writes:      []oda.Resource{oda.ResCooling}, // fan duty is part of the thermal plant
	}
}

func (f FanControl) params() (float64, float64) {
	target := f.TargetCelsius
	if target <= 0 {
		target = 68
	}
	gain := f.Gain
	if gain <= 0 {
		gain = 0.02
	}
	return target, gain
}

// Run implements oda.Capability: one control pass.
func (f FanControl) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	target, gain := f.params()
	var adjusted int
	var meanErr stats.Online
	for _, n := range dc.Nodes {
		errC := n.Temperature() - target
		meanErr.Add(errC)
		if errC > 0.5 || errC < -0.5 {
			n.SetFanSpeed(n.FanSpeed() + gain*errC)
			adjusted++
		}
	}
	return oda.Result{
		Summary: fmt.Sprintf("fan pass: %d/%d nodes adjusted, mean thermal error %.1fC",
			adjusted, len(dc.Nodes), meanErr.Mean()),
		Values: map[string]float64{
			"adjusted": float64(adjusted), "mean_error_c": meanErr.Mean(),
			"target_c": target,
		},
	}, nil
}

// Controller returns the automated fan controller.
func (f FanControl) Controller() simulation.Controller {
	target, gain := f.params()
	return simulation.ControllerFunc{
		ControllerName: "fan-control",
		Fn: func(dc *simulation.DataCenter, now int64) {
			for _, n := range dc.Nodes {
				errC := n.Temperature() - target
				if errC > 0.5 || errC < -0.5 {
					n.SetFanSpeed(n.FanSpeed() + gain*errC)
				}
			}
		},
	}
}
