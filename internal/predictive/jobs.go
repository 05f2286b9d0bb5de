package predictive

import (
	"fmt"
	"hash/fnv"

	"repro/internal/metric"
	"repro/internal/ml"
	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/stats"
	"repro/internal/workload"
)

// submissionFeatures are the metadata available at submit time — no
// post-hoc knowledge — the same features PRIONN-class predictors use.
func submissionFeatures(j *workload.Job) []float64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(j.User))
	userHash := float64(h.Sum32()%97) / 97
	hour := float64((j.SubmitTime / 3600000) % 24)
	return []float64{
		float64(j.Nodes),
		j.ReqWalltime,
		hour,
		userHash,
		j.MemoryGiBPerNode,
	}
}

// JobDuration predicts job runtimes from submission metadata with a
// random forest, scored on a hold-out split against the user-request
// baseline (users overestimate 1.2-4x, so beating the request is the bar
// every surveyed predictor sets).
type JobDuration struct {
	Seed int64
}

// Meta implements oda.Capability.
func (JobDuration) Meta() oda.Meta {
	return oda.Meta{
		Name:        "job-duration",
		Description: "job runtime prediction from submission metadata",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Predictive)},
		Refs:        []string{"[30]", "[34]", "[35]"},
		Reads:       []oda.Resource{oda.ResJobQueue},
	}
}

// TrainedPredictor fits the model on the window's finished jobs and
// returns a predictor closure for use by prescriptive scheduling
// (predict-then-backfill).
func (c JobDuration) TrainedPredictor(ctx *oda.RunContext) (func(*workload.Job) float64, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	var y []float64
	for _, rec := range dc.Allocations() {
		if rec.End == 0 || rec.Killed || rec.End < ctx.From || rec.End >= ctx.To {
			continue
		}
		rows = append(rows, submissionFeatures(rec.Job))
		y = append(y, rec.Job.RuntimeSeconds())
	}
	if len(rows) < 10 {
		return nil, fmt.Errorf("predictive: only %d finished jobs to learn from", len(rows))
	}
	x, err := ml.MatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	rf := ml.RandomForest{Trees: 30, MaxDepth: 8, Seed: c.Seed}
	if err := rf.FitRegressor(x, y); err != nil {
		return nil, err
	}
	return func(j *workload.Job) float64 {
		v, err := rf.Regress(submissionFeatures(j))
		if err != nil || v <= 0 {
			return j.ReqWalltime
		}
		return v
	}, nil
}

// Run implements oda.Capability.
func (c JobDuration) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	var rows [][]float64
	var y, reqs []float64
	for _, rec := range dc.Allocations() {
		if rec.End == 0 || rec.Killed || rec.End < ctx.From || rec.End >= ctx.To {
			continue
		}
		rows = append(rows, submissionFeatures(rec.Job))
		y = append(y, rec.Job.RuntimeSeconds())
		reqs = append(reqs, rec.Job.ReqWalltime)
	}
	if len(rows) < 20 {
		return oda.Result{}, fmt.Errorf("predictive: only %d finished jobs", len(rows))
	}
	x, err := ml.MatrixFromRows(rows)
	if err != nil {
		return oda.Result{}, err
	}
	trainIdx, testIdx := ml.TrainTestSplit(len(rows), 0.3, c.Seed)
	rf := ml.RandomForest{Trees: 30, MaxDepth: 8, Seed: c.Seed}
	if err := rf.FitRegressor(ml.SelectRows(x, trainIdx), ml.SelectFloats(y, trainIdx)); err != nil {
		return oda.Result{}, err
	}
	pred := make([]float64, len(testIdx))
	for i, r := range testIdx {
		pred[i], _ = rf.Regress(x.Row(r))
	}
	truth := ml.SelectFloats(y, testIdx)
	reqBaseline := ml.SelectFloats(reqs, testIdx)
	modelMAE := ml.MAE(pred, truth)
	reqMAE := ml.MAE(reqBaseline, truth)
	meanRuntime := stats.Mean(truth)
	return oda.Result{
		Summary: fmt.Sprintf("runtime prediction over %d jobs: model MAE %.0fs vs user-request MAE %.0fs (mean runtime %.0fs)",
			len(rows), modelMAE, reqMAE, meanRuntime),
		Values: map[string]float64{
			"model_mae_s": modelMAE, "request_mae_s": reqMAE,
			"jobs": float64(len(rows)), "mean_runtime_s": meanRuntime,
		},
	}, nil
}

// ResourceUsage predicts a job's mean per-node power draw from submission
// metadata (Evalix/Sirbu-style), the estimator power-aware scheduling
// needs before a job has ever run.
type ResourceUsage struct {
	Seed int64
}

// Meta implements oda.Capability.
func (ResourceUsage) Meta() oda.Meta {
	return oda.Meta{
		Name:        "resource-predict",
		Description: "job mean power prediction from submission metadata",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Predictive)},
		Refs:        []string{"[31]", "[52]", "[53]"},
		Reads:       []oda.Resource{oda.ResJobQueue, oda.StoreResource("node_power_watts")},
	}
}

// measuredJobPower returns a finished job's observed mean per-node power.
func measuredJobPower(ctx *oda.RunContext, dc *simulation.DataCenter, rec *simulation.AllocationRecord) (float64, bool) {
	if rec.End == 0 || rec.Killed {
		return 0, false
	}
	var sum float64
	var count int
	for _, idx := range rec.Nodes {
		n := dc.Nodes[idx]
		labels := metric.NewLabels("node", n.Name(), "rack", n.Cfg.Rack)
		vals, err := ctx.Store.SeriesValues(metric.ID{Name: "node_power_watts", Labels: labels}, rec.Start, rec.End, 0)
		if err != nil || len(vals) == 0 {
			continue
		}
		sum += stats.Mean(vals)
		count++
	}
	if count == 0 {
		return 0, false
	}
	return sum / float64(count), true
}

// TrainedEstimator fits the model and returns a per-job power estimator
// for the power-aware scheduler.
func (c ResourceUsage) TrainedEstimator(ctx *oda.RunContext) (func(*workload.Job) float64, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	var y []float64
	for _, rec := range dc.Allocations() {
		p, ok := measuredJobPower(ctx, dc, rec)
		if !ok {
			continue
		}
		rows = append(rows, submissionFeatures(rec.Job))
		y = append(y, p)
	}
	if len(rows) < 10 {
		return nil, fmt.Errorf("predictive: only %d jobs with power telemetry", len(rows))
	}
	x, err := ml.MatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	knn := ml.KNN{K: 5}
	if err := knn.FitRegressor(x, y); err != nil {
		return nil, err
	}
	fallback := stats.Mean(y)
	return func(j *workload.Job) float64 {
		v, err := knn.Regress(submissionFeatures(j))
		if err != nil || v <= 0 {
			return fallback * float64(j.Nodes)
		}
		return v * float64(j.Nodes)
	}, nil
}

// Run implements oda.Capability.
func (c ResourceUsage) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	var rows [][]float64
	var y []float64
	for _, rec := range dc.Allocations() {
		p, ok := measuredJobPower(ctx, dc, rec)
		if !ok {
			continue
		}
		rows = append(rows, submissionFeatures(rec.Job))
		y = append(y, p)
	}
	if len(rows) < 20 {
		return oda.Result{}, fmt.Errorf("predictive: only %d jobs with power telemetry", len(rows))
	}
	x, err := ml.MatrixFromRows(rows)
	if err != nil {
		return oda.Result{}, err
	}
	trainIdx, testIdx := ml.TrainTestSplit(len(rows), 0.3, c.Seed)
	knn := ml.KNN{K: 5}
	if err := knn.FitRegressor(ml.SelectRows(x, trainIdx), ml.SelectFloats(y, trainIdx)); err != nil {
		return oda.Result{}, err
	}
	pred := make([]float64, len(testIdx))
	for i, r := range testIdx {
		pred[i], _ = knn.Regress(x.Row(r))
	}
	truth := ml.SelectFloats(y, testIdx)
	mean := stats.Mean(ml.SelectFloats(y, trainIdx))
	meanBaseline := make([]float64, len(truth))
	for i := range meanBaseline {
		meanBaseline[i] = mean
	}
	modelMAE := ml.MAE(pred, truth)
	baseMAE := ml.MAE(meanBaseline, truth)
	return oda.Result{
		Summary: fmt.Sprintf("per-node power prediction over %d jobs: kNN MAE %.1fW vs mean-baseline %.1fW",
			len(rows), modelMAE, baseMAE),
		Values: map[string]float64{
			"model_mae_w": modelMAE, "baseline_mae_w": baseMAE, "jobs": float64(len(rows)),
		},
	}, nil
}

// Register adds every predictive capability with default parameters.
func Register(g *oda.Grid) error {
	caps := []oda.Capability{
		KPIForecast{}, CoolingModel{}, PowerSpike{},
		SensorForecast{}, ThermalRisk{}, InstMix{},
		SchedSimulate{}, WorkloadForecast{},
		JobDuration{}, ResourceUsage{},
	}
	for _, c := range caps {
		if err := g.Register(c); err != nil {
			return err
		}
	}
	return nil
}
