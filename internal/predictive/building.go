// Package predictive implements the framework's third analytics row:
// "what will happen?". It forecasts facility KPIs and cooling demand,
// models cooling performance, reproduces LLNL's FFT power-spike forecast,
// forecasts node sensors and thermal failure risk, predicts instruction
// mixes for DVFS governors, replays the job queue through what-if scheduler
// simulations, forecasts workload arrivals, and predicts job duration and
// resource usage from submission metadata.
package predictive

import (
	"fmt"
	"math"

	"repro/internal/forecast"
	"repro/internal/metric"
	"repro/internal/ml"
	"repro/internal/oda"
	"repro/internal/stats"
	"repro/internal/timeseries"
)

func cell(p oda.Pillar, t oda.Type) oda.Cell { return oda.Cell{Pillar: p, Type: t} }

var siteLabels = metric.NewLabels("site", "vdc")

// longWindowMs is where backtests switch from raw scans to the query
// planner: past half a day the 1m rollup tier carries the same information
// at the collection cadence (60 s), so reading raw chunks buys nothing.
const longWindowMs = 12 * 3600 * 1000

// plannedStep picks the display resolution for a window: long windows read
// per-minute planner buckets (tier-served when the store keeps rollups),
// short ones stream raw samples.
func plannedStep(from, to int64) int64 {
	if to-from >= longWindowMs {
		return timeseries.TierStep1m
	}
	return 0
}

// seriesValues fetches a named facility series over the window, through the
// query planner for long windows.
func seriesValues(ctx *oda.RunContext, name string) ([]float64, error) {
	id := metric.ID{Name: name, Labels: siteLabels}
	vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, plannedStep(ctx.From, ctx.To))
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("predictive: no %s samples in window", name)
	}
	return vals, nil
}

// KPIForecast backtests Holt-Winters against naive baselines on a facility
// KPI series (PUE by default) — the Shoukourian-style KPI forecasting cell.
type KPIForecast struct {
	// Metric is the facility series name (default facility_pue).
	Metric string
	// PeriodSamples is the seasonal period (default 1440: one day of 60 s
	// samples).
	PeriodSamples int
	// Horizon in samples (default 60: one hour ahead).
	Horizon int
}

// Meta implements oda.Capability.
func (KPIForecast) Meta() oda.Meta {
	return oda.Meta{
		Name:        "kpi-forecast",
		Description: "seasonal forecasting of facility KPIs with baseline comparison",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Predictive)},
		Refs:        []string{"[45]", "[37]"},
		Reads:       []oda.Resource{oda.StoreResource("facility_")},
	}
}

// Run implements oda.Capability.
func (c KPIForecast) Run(ctx *oda.RunContext) (oda.Result, error) {
	name := c.Metric
	if name == "" {
		name = "facility_pue"
	}
	period := c.PeriodSamples
	if period <= 0 {
		period = 1440
	}
	horizon := c.Horizon
	if horizon <= 0 {
		horizon = 60
	}
	vals, err := seriesValues(ctx, name)
	if err != nil {
		return oda.Result{}, err
	}
	minTrain := 2*period + 1
	if len(vals) < minTrain+horizon {
		// Window shorter than two seasons: fall back to a sub-daily period
		// so the capability still works on short experiments.
		period = len(vals) / 4
		if period < 2 {
			return oda.Result{}, fmt.Errorf("predictive: %d samples too few to forecast", len(vals))
		}
		minTrain = 2*period + 1
	}
	step := horizon
	scores, err := forecast.Compare(vals, minTrain, horizon, step,
		&forecast.HoltWinters{Period: period},
		&forecast.SES{},
		&forecast.Naive{},
	)
	if err != nil {
		return oda.Result{}, err
	}
	hw, ses, naive := scores[0], scores[1], scores[2]
	return oda.Result{
		Summary: fmt.Sprintf("%s forecast MAE: holt-winters %.4f vs ses %.4f vs naive %.4f (%d points)",
			name, hw.MAE, ses.MAE, naive.MAE, hw.N),
		Values: map[string]float64{
			"hw_mae": hw.MAE, "hw_rmse": hw.RMSE, "ses_mae": ses.MAE,
			"naive_mae": naive.MAE, "points": float64(hw.N),
		},
	}, nil
}

// CoolingModel fits a regression model of cooling power against IT power,
// outdoor temperature and setpoint — the Conficoni/Shoukourian cooling
// performance model, usable to forecast the impact of configuration change.
type CoolingModel struct{}

// Meta implements oda.Capability.
func (CoolingModel) Meta() oda.Meta {
	return oda.Meta{
		Name:        "cooling-model",
		Description: "regression model of cooling power vs IT load, weather and setpoint",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Predictive)},
		Refs:        []string{"[18]", "[46]"},
		Reads:       []oda.Resource{oda.StoreResource("facility_")},
	}
}

// coolingFeatures builds the regressor vector: IT power, outdoor temp,
// setpoint, free-cooling flag and the flag-IT interaction. The plant is
// bimodal (free cooling vs chiller), so the flag and interaction let one
// linear model capture both regimes.
func coolingFeatures(it, outdoor, setpoint, free float64) []float64 {
	return []float64{it, outdoor, setpoint, free, free * it}
}

// Fit builds the regression from the window. The returned predictor maps
// (itPowerW, outdoorTemp, setpoint, freeCooling) to predicted cooling
// power; prescriptive setpoint optimization reuses it.
func (CoolingModel) Fit(ctx *oda.RunContext) (*ml.LinearRegression, float64, error) {
	cooling, err := seriesValues(ctx, "facility_cooling_power_watts")
	if err != nil {
		return nil, 0, err
	}
	it, err := seriesValues(ctx, "facility_it_power_watts")
	if err != nil {
		return nil, 0, err
	}
	outdoor, err := seriesValues(ctx, "facility_outdoor_temp_celsius")
	if err != nil {
		return nil, 0, err
	}
	setpoint, err := seriesValues(ctx, "facility_setpoint_celsius")
	if err != nil {
		return nil, 0, err
	}
	free, err := seriesValues(ctx, "facility_free_cooling_active")
	if err != nil {
		return nil, 0, err
	}
	n := len(cooling)
	for _, s := range [][]float64{it, outdoor, setpoint, free} {
		if len(s) < n {
			n = len(s)
		}
	}
	if n < 20 {
		return nil, 0, fmt.Errorf("predictive: only %d aligned samples for cooling model", n)
	}
	x := ml.NewMatrix(n, 5)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		copy(x.Row(i), coolingFeatures(it[i], outdoor[i], setpoint[i], free[i]))
		y[i] = cooling[i]
	}
	lr := &ml.LinearRegression{Lambda: 1e-6}
	if err := lr.Fit(x, y); err != nil {
		return nil, 0, err
	}
	r2 := ml.R2(lr.PredictBatch(x), y)
	return lr, r2, nil
}

// Run implements oda.Capability.
func (c CoolingModel) Run(ctx *oda.RunContext) (oda.Result, error) {
	lr, r2, err := c.Fit(ctx)
	if err != nil {
		return oda.Result{}, err
	}
	return oda.Result{
		Summary: fmt.Sprintf("cooling = f(IT, outdoor, setpoint): R2 %.3f, dCooling/dIT %.4f, dCooling/dSetpoint %.1f W/degC",
			r2, lr.Coef[0], lr.Coef[2]),
		Values: map[string]float64{
			"r2": r2, "coef_it": lr.Coef[0], "coef_outdoor": lr.Coef[1],
			"coef_setpoint": lr.Coef[2], "intercept": lr.Intercept,
		},
	}, nil
}

// PowerSpike reproduces LLNL's utility-notification use case (§V-C): an
// FFT extrapolation of total facility power forecasts the next window, and
// any predicted swing beyond ThresholdW within WindowSamples triggers an
// advance notification. Measured swings score the forecast.
type PowerSpike struct {
	// ThresholdW is the utility's notification threshold (default: the
	// P90 of observed sustained ramps, the analogue of LLNL's 750 kW on
	// this plant's scale).
	ThresholdW float64
	// WindowSamples is the contract window in samples (default 60 at 60 s
	// cadence = 1 h; LLNL's 15-minute window scales with plant inertia).
	WindowSamples int
	// SmoothSamples is the metering average (default 15 = 15 minutes).
	SmoothSamples int
	// HorizonSamples is how far ahead to forecast (default 240 = 4 h).
	HorizonSamples int
}

// Meta implements oda.Capability.
func (PowerSpike) Meta() oda.Meta {
	return oda.Meta{
		Name:        "power-spike-forecast",
		Description: "FFT-based forecast of site power swings for utility notification",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Predictive)},
		Refs:        []string{"[72]"},
		Reads:       []oda.Resource{oda.StoreResource("facility_total_power")},
	}
}

// countSwings returns how many positions in xs start a |delta| >= thr swing
// within w samples.
func countSwings(xs []float64, w int, thr float64) int {
	count := 0
	for i := 0; i+1 < len(xs); i++ {
		end := i + w
		if end >= len(xs) {
			end = len(xs) - 1
		}
		for j := i + 1; j <= end; j++ {
			if math.Abs(xs[j]-xs[i]) >= thr {
				count++
				break
			}
		}
	}
	return count
}

// movingAverage smooths xs with a trailing window of w samples. Utility
// contracts meter sustained ramps, not instantaneous job-start jumps, so
// both the forecast and the actuals are compared on this smoothed signal.
func movingAverage(xs []float64, w int) []float64 {
	if w <= 1 {
		return xs
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= w {
			sum -= xs[i-w]
		}
		n := i + 1
		if n > w {
			n = w
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Run implements oda.Capability.
func (c PowerSpike) Run(ctx *oda.RunContext) (oda.Result, error) {
	vals, err := seriesValues(ctx, "facility_total_power_watts")
	if err != nil {
		return oda.Result{}, err
	}
	window := c.WindowSamples
	if window <= 0 {
		window = 60
	}
	smoothW := c.SmoothSamples
	if smoothW <= 0 {
		smoothW = 15
	}
	horizon := c.HorizonSamples
	if horizon <= 0 {
		horizon = 240
	}
	if len(vals) < 2*horizon {
		return oda.Result{}, fmt.Errorf("predictive: %d samples too few for spike forecasting", len(vals))
	}
	// The contract meters sustained ramps: compare swings on the
	// 15-minute-smoothed signal, as LLNL's Fourier method does implicitly.
	smooth := movingAverage(vals, smoothW)
	thr := c.ThresholdW
	if thr <= 0 {
		// Calibrate to the plant: a reportable swing is 40% of the smoothed
		// signal's dynamic range (LLNL's 750 kW plays the same role against
		// their site's swing range).
		hi, _ := stats.Quantile(smooth, 0.99)
		lo, _ := stats.Quantile(smooth, 0.01)
		thr = 0.4 * (hi - lo)
		if thr <= 0 {
			thr = 1
		}
	}
	// Fit on all but the last horizon; forecast it; compare swing counts.
	train, actual := smooth[:len(smooth)-horizon], smooth[len(smooth)-horizon:]
	ff := forecast.SeasonalFFT{}
	if err := ff.Fit(train); err != nil {
		return oda.Result{}, err
	}
	pred := ff.Forecast(horizon)
	predSwings := countSwings(pred, window, thr)
	actualSwings := countSwings(actual, window, thr)
	mae := ml.MAE(pred, actual)
	return oda.Result{
		Summary: fmt.Sprintf("pattern period %d samples; threshold %.0f W / %d samples: %d swings predicted vs %d observed (forecast MAE %.0f W)",
			ff.DetectedPeriod(), thr, window, predSwings, actualSwings, mae),
		Values: map[string]float64{
			"threshold_w": thr, "predicted_swings": float64(predSwings),
			"actual_swings": float64(actualSwings), "mae_w": mae,
			"period_samples": float64(ff.DetectedPeriod()),
		},
	}, nil
}
