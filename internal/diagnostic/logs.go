package diagnostic

import (
	"fmt"
	"strings"

	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/stats"
)

// LogEntropy computes LogSCAN's System Information Entropy over the event
// log (Hui et al.): the Shannon entropy of the window's event-kind
// distribution, compared between the first and second half of the window
// so state transitions show up as an entropy shift.
type LogEntropy struct{}

// Meta implements oda.Capability.
func (LogEntropy) Meta() oda.Meta {
	return oda.Meta{
		Name:        "log-entropy",
		Description: "System Information Entropy over the structured event log",
		Cells: []oda.Cell{
			cell(oda.SystemHardware, oda.Descriptive),
			cell(oda.SystemSoftware, oda.Descriptive),
		},
		Refs:  []string{"[14]"},
		Reads: []oda.Resource{oda.ResEvents},
	}
}

// Run implements oda.Capability.
func (LogEntropy) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	evs := dc.Events.Query(ctx.From, ctx.To)
	if len(evs) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no events in window")
	}
	mid := ctx.From + (ctx.To-ctx.From)/2
	hFirst := dc.Events.Entropy(ctx.From, mid)
	hSecond := dc.Events.Entropy(mid, ctx.To)
	hAll := dc.Events.Entropy(ctx.From, ctx.To)
	kinds := dc.Events.CountsByKind(ctx.From, ctx.To)
	var top []string
	for i, kc := range kinds {
		if i >= 3 {
			break
		}
		top = append(top, fmt.Sprintf("%s=%d", kc.Kind, kc.Count))
	}
	return oda.Result{
		Summary: fmt.Sprintf("log SIE %.3f bits over %d events (%.3f -> %.3f across halves); top kinds %s",
			hAll, len(evs), hFirst, hSecond, strings.Join(top, " ")),
		Values: map[string]float64{
			"sie_bits": hAll, "sie_first_half": hFirst, "sie_second_half": hSecond,
			"events": float64(len(evs)), "kinds": float64(len(kinds)),
			"error_rate": dc.Events.ErrorRate(ctx.From, ctx.To),
		},
	}, nil
}

// FailurePostmortem correlates node-failure events against the thermal
// telemetry that preceded them: the log-plus-metrics root-cause pattern
// (AutoDiagn-style, over events). It reports what fraction of failures
// had an over-temperature precursor and the lead time available.
type FailurePostmortem struct {
	// HotCelsius is the precursor threshold (default 85).
	HotCelsius float64
	// LookbackMs before the failure event to scan (default 1 h).
	LookbackMs int64
}

// Meta implements oda.Capability.
func (FailurePostmortem) Meta() oda.Meta {
	return oda.Meta{
		Name:        "failure-postmortem",
		Description: "correlate node failures in the event log with thermal precursors",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Diagnostic)},
		Refs:        []string{"[9]", "[14]"},
		Reads:       []oda.Resource{oda.ResEvents, oda.StoreResource("node_cpu_temp")},
	}
}

// Run implements oda.Capability.
func (c FailurePostmortem) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	hot := c.HotCelsius
	if hot <= 0 {
		hot = 85
	}
	lookback := c.LookbackMs
	if lookback <= 0 {
		lookback = 3600 * 1000
	}
	var failures, withPrecursor int
	var leadTimes []float64
	for _, ev := range dc.Events.Query(ctx.From, ctx.To) {
		if ev.Kind != "node_fail" {
			continue
		}
		failures++
		nodeName := strings.TrimPrefix(ev.Source, "node/")
		ids := ctx.Store.Select("node_cpu_temp_celsius", metric.NewLabels("node", nodeName))
		if len(ids) != 1 {
			continue
		}
		// The first crossing gives the maximum lead time; the scan stops there.
		// The ID comes from Select, so Each fails only on a corrupt chunk.
		_ = ctx.Store.Each(ids[0], ev.T-lookback, ev.T, func(sm metric.Sample) bool {
			if sm.V < hot {
				return true
			}
			withPrecursor++
			leadTimes = append(leadTimes, float64(ev.T-sm.T)/1000)
			return false
		})
	}
	if failures == 0 {
		return oda.Result{
			Summary: "no node failures in window",
			Values:  map[string]float64{"failures": 0, "with_thermal_precursor": 0},
		}, nil
	}
	meanLead := stats.Mean(leadTimes)
	return oda.Result{
		Summary: fmt.Sprintf("%d failures, %d with >=%.0fC precursor (mean lead %.0fs)",
			failures, withPrecursor, hot, meanLead),
		Values: map[string]float64{
			"failures": float64(failures), "with_thermal_precursor": float64(withPrecursor),
			"mean_lead_s": meanLead,
		},
	}, nil
}
