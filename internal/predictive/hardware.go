package predictive

import (
	"fmt"
	"sort"

	"repro/internal/forecast"
	"repro/internal/metric"
	"repro/internal/ml"
	"repro/internal/oda"
	"repro/internal/stats"
)

// SensorForecast backtests AR and Holt models on per-node sensors
// (PRACTISE / correlation-wise-smoothing style short-horizon forecasting),
// reporting fleet-average error against the naive baseline.
type SensorForecast struct {
	// Metric is the node series (default node_cpu_temp_celsius).
	Metric string
	// Horizon in samples (default 15).
	Horizon int
	// MaxNodes bounds how many nodes are backtested (default 8).
	MaxNodes int
}

// Meta implements oda.Capability.
func (SensorForecast) Meta() oda.Meta {
	return oda.Meta{
		Name:        "sensor-forecast",
		Description: "short-horizon AR/trend forecasting of node sensors",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Predictive)},
		Refs:        []string{"[32]", "[47]"},
		Reads:       []oda.Resource{oda.StoreResource("node_")},
	}
}

// Run implements oda.Capability.
func (c SensorForecast) Run(ctx *oda.RunContext) (oda.Result, error) {
	name := c.Metric
	if name == "" {
		name = "node_cpu_temp_celsius"
	}
	horizon := c.Horizon
	if horizon <= 0 {
		horizon = 15
	}
	maxNodes := c.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 8
	}
	ids := ctx.Store.Select(name, nil)
	if len(ids) == 0 {
		return oda.Result{}, fmt.Errorf("predictive: no %s telemetry", name)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a].Key() < ids[b].Key() })
	if len(ids) > maxNodes {
		ids = ids[:maxNodes]
	}
	var arMAE, naiveMAE stats.Online
	step := plannedStep(ctx.From, ctx.To)
	for _, id := range ids {
		vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, step)
		if err != nil || len(vals) < 4*horizon+20 {
			continue
		}
		minTrain := len(vals) / 2
		scores, err := forecast.Compare(vals, minTrain, horizon, horizon,
			&forecast.AR{P: 8}, &forecast.Naive{})
		if err != nil {
			continue
		}
		arMAE.Add(scores[0].MAE)
		naiveMAE.Add(scores[1].MAE)
	}
	if arMAE.N() == 0 {
		return oda.Result{}, fmt.Errorf("predictive: no node series long enough to backtest")
	}
	return oda.Result{
		Summary: fmt.Sprintf("%s %d-step forecast over %d nodes: AR MAE %.3f vs naive %.3f",
			name, horizon, arMAE.N(), arMAE.Mean(), naiveMAE.Mean()),
		Values: map[string]float64{
			"ar_mae": arMAE.Mean(), "naive_mae": naiveMAE.Mean(), "nodes": float64(arMAE.N()),
		},
	}, nil
}

// ThermalRisk predicts which nodes will run hot (a failure precursor in
// the simulator's temperature-accelerated hazard model, and in real
// machines) using a logistic model on current telemetry — the Sirbu &
// Babaoglu proactive-autonomics cell.
type ThermalRisk struct {
	// HotCelsius labels a future window as risky (default 80).
	HotCelsius float64
	// LeadSamples is the prediction lead time in samples (default 30).
	LeadSamples int
}

// Meta implements oda.Capability.
func (ThermalRisk) Meta() oda.Meta {
	return oda.Meta{
		Name:        "failure-risk",
		Description: "logistic prediction of imminent node over-temperature",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Predictive)},
		Refs:        []string{"[48]"},
		Reads:       []oda.Resource{oda.StoreResource("node_")},
	}
}

// riskFeatures is ThermalRisk's row width: temperature, its 5-sample trend,
// utilization and fan speed.
const riskFeatures = 4

// Run implements oda.Capability.
func (c ThermalRisk) Run(ctx *oda.RunContext) (oda.Result, error) {
	hot := c.HotCelsius
	if hot <= 0 {
		hot = 80
	}
	lead := c.LeadSamples
	if lead <= 0 {
		lead = 30
	}
	ids := ctx.Store.Select("node_cpu_temp_celsius", nil)
	if len(ids) == 0 {
		return oda.Result{}, fmt.Errorf("predictive: no temperature telemetry")
	}
	// The feature matrix is built once, flat: four features a row, appended
	// straight into one slice sized from the first node's aligned length.
	var feats, labels []float64
	step := plannedStep(ctx.From, ctx.To)
	for _, id := range ids {
		// The three feature series go through the planner at one shared
		// resolution so their indices stay aligned sample-for-sample.
		temps, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, step)
		if err != nil {
			continue
		}
		utilID := metric.ID{Name: "node_utilization", Labels: id.Labels}
		fanID := metric.ID{Name: "node_fan_speed", Labels: id.Labels}
		utils, err1 := ctx.Store.SeriesValues(utilID, ctx.From, ctx.To, step)
		fans, err2 := ctx.Store.SeriesValues(fanID, ctx.From, ctx.To, step)
		if err1 != nil || err2 != nil {
			continue
		}
		n := min(len(temps), len(utils), len(fans))
		if rows := n - 5 - lead; feats == nil && rows > 0 {
			feats = make([]float64, 0, rows*len(ids)*riskFeatures)
			labels = make([]float64, 0, rows*len(ids))
		}
		for i := 5; i+lead < n; i++ {
			// Features: current temp, short trend, utilization, fan.
			feats = append(feats, temps[i], temps[i]-temps[i-5], utils[i], fans[i])
			future := temps[i+1 : i+lead+1]
			label := 0.0
			for _, ft := range future {
				if ft >= hot {
					label = 1
					break
				}
			}
			labels = append(labels, label)
		}
	}
	if len(labels) < 50 {
		return oda.Result{}, fmt.Errorf("predictive: only %d risk samples", len(labels))
	}
	var positives int
	for _, l := range labels {
		if l == 1 {
			positives++
		}
	}
	if positives == 0 || positives == len(labels) {
		return oda.Result{
			Summary: fmt.Sprintf("degenerate risk labels (%d/%d positive): fleet never crosses %.0fC", positives, len(labels), hot),
			Values:  map[string]float64{"samples": float64(len(labels)), "positives": float64(positives), "auc_proxy": 0},
		}, nil
	}
	x := &ml.Matrix{Rows: len(labels), Cols: riskFeatures, Data: feats}
	var scaler ml.StandardScaler
	scaler.Fit(x)
	scaler.Apply(x)
	train, test, trainY, testY := ml.SplitInPlace(x, labels, 0.3, 7)
	lg := ml.LogisticRegression{Epochs: 300, LearningRate: 0.3}
	if err := lg.Fit(train, trainY); err != nil {
		return oda.Result{}, err
	}
	// Score: mean predicted probability on positive vs negative test rows
	// (a separation proxy robust to class imbalance).
	var posP, negP stats.Online
	var correct int
	for r, label := range testY {
		p := lg.PredictProba(test.Row(r))
		if label == 1 {
			posP.Add(p)
		} else {
			negP.Add(p)
		}
		if float64(lg.Predict(test.Row(r))) == label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(testY))
	sep := posP.Mean() - negP.Mean()
	return oda.Result{
		Summary: fmt.Sprintf("thermal-risk model: accuracy %.0f%%, P(risk|hot)-P(risk|cool) = %.2f over %d samples (%d positive)",
			acc*100, sep, len(labels), positives),
		Values: map[string]float64{
			"accuracy": acc, "separation": sep,
			"samples": float64(len(labels)), "positives": float64(positives),
		},
	}, nil
}

// InstMix predicts each busy node's near-future instruction-mix intensity
// (the dynamic-power-per-utilization signature GEOPM keys DVFS on) by
// trend-extrapolating its recent signature; prediction quality is scored
// against the realized next interval.
type InstMix struct {
	// WindowSamples of history per prediction (default 10).
	WindowSamples int
}

// Meta implements oda.Capability.
func (InstMix) Meta() oda.Meta {
	return oda.Meta{
		Name:        "instmix-predict",
		Description: "short-horizon prediction of node compute-intensity signatures",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Predictive)},
		Refs:        []string{"[11]"},
		Reads: []oda.Resource{
			oda.StoreResource("node_power_watts"),
			oda.StoreResource("node_utilization"),
		},
	}
}

// intensitySeries derives the power-per-utilization signature of one node
// from its power and utilization samples taken pairwise, in time order. The
// utilization streams past the power values, and the signature overwrites
// them as it goes: a busy sample's signature lands at or before the power
// value it was computed from.
func intensitySeries(ctx *oda.RunContext, labels metric.Labels) []float64 {
	power, err := ctx.Store.SeriesValues(metric.ID{Name: "node_power_watts", Labels: labels}, ctx.From, ctx.To, 0)
	if err != nil {
		return nil
	}
	out, i := power[:0], 0
	err = ctx.Store.Each(metric.ID{Name: "node_utilization", Labels: labels}, ctx.From, ctx.To, func(sm metric.Sample) bool {
		if i == len(power) {
			return false
		}
		if u := sm.V; u >= 5 { // below: idle, no signature
			out = append(out, (power[i]-95)/u)
		}
		i++
		return true
	})
	if err != nil {
		return nil
	}
	return out
}

// Run implements oda.Capability.
func (c InstMix) Run(ctx *oda.RunContext) (oda.Result, error) {
	window := c.WindowSamples
	if window <= 1 {
		window = 10
	}
	ids := ctx.Store.Select("node_power_watts", nil)
	// The GEOPM insight is that signatures persist: the model is
	// persistence (last observed value), scored against the uninformed
	// global-mean baseline a mix-blind governor would have to use.
	var global stats.Online
	type sigSeries struct{ sig []float64 }
	var all []sigSeries
	for _, id := range ids {
		sig := intensitySeries(ctx, id.Labels)
		if len(sig) < window+2 {
			continue
		}
		for _, v := range sig {
			global.Add(v)
		}
		all = append(all, sigSeries{sig: sig})
	}
	var predMAE, baseMAE stats.Online
	for _, s := range all {
		for i := window; i+1 < len(s.sig); i++ {
			actual := s.sig[i]
			predMAE.Add(absf(s.sig[i-1] - actual))
			baseMAE.Add(absf(global.Mean() - actual))
		}
	}
	if predMAE.N() == 0 {
		return oda.Result{}, fmt.Errorf("predictive: no busy-node signatures to predict")
	}
	return oda.Result{
		Summary: fmt.Sprintf("intensity prediction over %d intervals: persistence MAE %.3f vs global-mean %.3f",
			predMAE.N(), predMAE.Mean(), baseMAE.Mean()),
		Values: map[string]float64{
			"pred_mae": predMAE.Mean(), "naive_mae": baseMAE.Mean(), "intervals": float64(predMAE.N()),
		},
	}, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
