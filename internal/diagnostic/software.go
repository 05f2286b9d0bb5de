package diagnostic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/metric"
	"repro/internal/ml"
	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/workload"
)

// RogueProcess identifies nodes doing work the scheduler did not assign —
// the OS-noise / unauthorized-software diagnostic: utilization telemetry is
// cross-checked against the placement log, so a cryptominer injected
// outside the batch system (or a noisy OS service) stands out.
type RogueProcess struct {
	// MinUtilization (percent) below which activity is treated as noise
	// floor (default 5).
	MinUtilization float64
}

// Meta implements oda.Capability.
func (RogueProcess) Meta() oda.Meta {
	return oda.Meta{
		Name:        "rogue-process",
		Description: "detect node activity not attributable to any scheduled job",
		Cells: []oda.Cell{
			cell(oda.SystemSoftware, oda.Diagnostic),
		},
		Refs:  []string{"[16]", "[57]"},
		Reads: []oda.Resource{oda.ResJobQueue, oda.StoreResource("node_utilization")},
	}
}

// Run implements oda.Capability.
func (c RogueProcess) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	minUtil := c.MinUtilization
	if minUtil <= 0 {
		minUtil = 5
	}
	// Build per-node allocated intervals.
	type interval struct{ start, end int64 }
	allocated := map[int][]interval{}
	for _, rec := range dc.Allocations() {
		end := rec.End
		if end == 0 {
			end = ctx.To
		}
		for _, n := range rec.Nodes {
			allocated[n] = append(allocated[n], interval{rec.Start, end})
		}
	}
	rogue := map[string]int{}
	for idx := range dc.Nodes {
		name := dc.Nodes[idx].Name()
		id := metric.ID{Name: "node_utilization", Labels: metric.NewLabels("node", name, "rack", dc.Nodes[idx].Cfg.Rack)}
		// The coverage check streams off a cursor: busy-but-unallocated
		// instants are counted without materializing the window.
		_ = ctx.Store.Each(id, ctx.From, ctx.To, func(sm metric.Sample) bool {
			if sm.V < minUtil {
				return true
			}
			covered := false
			for _, iv := range allocated[idx] {
				// Allow one collection period of slack around boundaries.
				if sm.T >= iv.start-60_000 && sm.T <= iv.end+60_000 {
					covered = true
					break
				}
			}
			if !covered {
				rogue[name]++
			}
			return true
		})
	}
	names := make([]string, 0, len(rogue))
	var events int
	for n, k := range rogue {
		if k >= 3 { // require persistence, not a boundary artifact
			names = append(names, n)
			events += k
		}
	}
	sort.Strings(names)
	return oda.Result{
		Summary: fmt.Sprintf("%d nodes with unattributed activity [%s]", len(names), strings.Join(names, " ")),
		Values: map[string]float64{
			"rogue_nodes": float64(len(names)),
			"events":      float64(events),
		},
	}, nil
}

// MemoryLeakDetector finds slow monotone drifts in a per-node series using
// CUSUM — the classic symptom of a leaking system service (Tuncer et al.'s
// memleak anomaly class).
type MemoryLeakDetector struct {
	// Metric is the series to watch (default node_power_watts: leaking
	// daemons burn cycles and power on otherwise idle nodes).
	Metric string
}

// Meta implements oda.Capability.
func (MemoryLeakDetector) Meta() oda.Meta {
	return oda.Meta{
		Name:        "drift-detector",
		Description: "CUSUM drift detection for leak-like software degradation",
		Cells:       []oda.Cell{cell(oda.SystemSoftware, oda.Diagnostic)},
		Refs:        []string{"[16]", "[56]"},
		Reads:       []oda.Resource{oda.StoreResource("node_")},
	}
}

// Run implements oda.Capability.
func (c MemoryLeakDetector) Run(ctx *oda.RunContext) (oda.Result, error) {
	name := c.Metric
	if name == "" {
		name = "node_power_watts"
	}
	ids := ctx.Store.Select(name, nil)
	if len(ids) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no %s telemetry", name)
	}
	det := anomaly.CUSUM{Baseline: 30, Slack: 0.5, H: 8}
	drifting := map[string]int{}
	for _, id := range ids {
		vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, 0)
		if err != nil {
			continue
		}
		if alarms := det.Alarms(vals); alarms > 0 {
			node, _ := id.Labels.Get("node")
			drifting[node] = alarms
		}
	}
	names := make([]string, 0, len(drifting))
	for n := range drifting {
		names = append(names, n)
	}
	sort.Strings(names)
	return oda.Result{
		Summary: fmt.Sprintf("%d series drifting [%s]", len(names), strings.Join(names, " ")),
		Values:  map[string]float64{"drifting_nodes": float64(len(names))},
	}, nil
}

// jobFeatures derives an application fingerprint vector from a finished
// job's measured telemetry: mean node power (normalized by nodes), mean
// utilization, runtime stretch vs request, and size.
func jobFeatures(ctx *oda.RunContext, dc *simulation.DataCenter, rec *simulation.AllocationRecord) ([]float64, bool) {
	if rec.End == 0 || rec.Killed {
		return nil, false
	}
	var powerSum, utilSum float64
	var count int
	for _, idx := range rec.Nodes {
		n := dc.Nodes[idx]
		labels := metric.NewLabels("node", n.Name(), "rack", n.Cfg.Rack)
		pMean, pn, err1 := rawMean(ctx, metric.ID{Name: "node_power_watts", Labels: labels}, rec.Start, rec.End)
		uMean, un, err2 := rawMean(ctx, metric.ID{Name: "node_utilization", Labels: labels}, rec.Start, rec.End)
		if err1 != nil || err2 != nil || pn == 0 || un == 0 {
			continue
		}
		powerSum += pMean
		utilSum += uMean
		count++
	}
	if count == 0 {
		return nil, false
	}
	j := rec.Job
	stretch := j.RuntimeSeconds() / j.IdealRuntime()
	return []float64{
		powerSum / float64(count),
		utilSum / float64(count),
		stretch,
		float64(j.Nodes),
		j.RuntimeSeconds() / 3600,
	}, true
}

// rawMean is the mean of one series' raw samples over [from, to) and their
// count, summed sample by sample in time order, so the mean does not depend
// on how rollup windows would group the sums.
func rawMean(ctx *oda.RunContext, id metric.ID, from, to int64) (float64, int, error) {
	var sum float64
	n := 0
	err := ctx.Store.Each(id, from, to, func(sm metric.Sample) bool {
		sum += sm.V
		n++
		return true
	})
	if err != nil || n == 0 {
		return 0, 0, err
	}
	return sum / float64(n), n, nil
}

// AppFingerprint classifies finished jobs into behaviour classes from
// their measured telemetry (Taxonomist-style), reporting hold-out accuracy
// and flagged cryptominers.
type AppFingerprint struct {
	// Seed controls the train/test split.
	Seed int64
}

// Meta implements oda.Capability.
func (AppFingerprint) Meta() oda.Meta {
	return oda.Meta{
		Name:        "app-fingerprint",
		Description: "application classification from job telemetry fingerprints",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Diagnostic)},
		Refs:        []string{"[33]", "[36]"},
		Reads:       []oda.Resource{oda.ResJobQueue, oda.StoreResource("node_")},
	}
}

// Run implements oda.Capability.
func (c AppFingerprint) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	var rows [][]float64
	var labels []int
	var minerTruth []bool
	for _, rec := range dc.Allocations() {
		feat, ok := jobFeatures(ctx, dc, rec)
		if !ok {
			continue
		}
		rows = append(rows, feat)
		labels = append(labels, int(rec.Job.Class))
		minerTruth = append(minerTruth, rec.Job.Class == workload.CryptoMiner)
	}
	if len(rows) < 10 {
		return oda.Result{}, fmt.Errorf("diagnostic: only %d fingerprintable jobs", len(rows))
	}
	x, err := ml.MatrixFromRows(rows)
	if err != nil {
		return oda.Result{}, err
	}
	var scaler ml.StandardScaler
	scaler.Fit(x)
	xs := scaler.Transform(x)
	trainIdx, testIdx := ml.TrainTestSplit(len(rows), 0.3, c.Seed)
	var nb ml.GaussianNB
	if err := nb.Fit(ml.SelectRows(xs, trainIdx), ml.SelectInts(labels, trainIdx), workload.NumClasses); err != nil {
		return oda.Result{}, err
	}
	pred := make([]int, len(testIdx))
	for i, r := range testIdx {
		p, err := nb.Classify(xs.Row(r))
		if err != nil {
			return oda.Result{}, err
		}
		pred[i] = p
	}
	acc := ml.Accuracy(pred, ml.SelectInts(labels, testIdx))
	// Miner detection over the whole population.
	var minersFound, minersTotal, falseMiners int
	for i := range rows {
		p, _ := nb.Classify(xs.Row(i))
		if minerTruth[i] {
			minersTotal++
			if p == int(workload.CryptoMiner) {
				minersFound++
			}
		} else if p == int(workload.CryptoMiner) {
			falseMiners++
		}
	}
	return oda.Result{
		Summary: fmt.Sprintf("class accuracy %.0f%% over %d jobs; miners %d/%d detected (%d false)",
			acc*100, len(rows), minersFound, minersTotal, falseMiners),
		Values: map[string]float64{
			"accuracy": acc, "jobs": float64(len(rows)),
			"miners_found": float64(minersFound), "miners_total": float64(minersTotal),
			"miner_false_positives": float64(falseMiners),
		},
	}, nil
}

// PerfPatterns identifies per-job performance patterns (compute vs memory
// vs io boundedness) from measured power-per-utilization signatures — the
// Imes/Emeras/Zhang use-case family.
type PerfPatterns struct{}

// Meta implements oda.Capability.
func (PerfPatterns) Meta() oda.Meta {
	return oda.Meta{
		Name:        "perf-patterns",
		Description: "per-job boundedness patterns from power/utilization signatures",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Diagnostic)},
		Refs:        []string{"[20]", "[31]", "[44]"},
		Reads:       []oda.Resource{oda.ResJobQueue, oda.StoreResource("node_")},
	}
}

// Run implements oda.Capability. Jobs running at high utilization but low
// power-per-utilization are memory/IO-stalled; high both is compute-bound.
func (PerfPatterns) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	var computeLike, stalledLike, total int
	for _, rec := range dc.Allocations() {
		feat, ok := jobFeatures(ctx, dc, rec)
		if !ok {
			continue
		}
		total++
		powerPerNode, util := feat[0], feat[1]
		if util < 1 {
			continue
		}
		// Dynamic power per utilization point, above the ~95W idle floor.
		intensity := (powerPerNode - 95) / util
		if intensity > 2.2 {
			computeLike++
		} else {
			stalledLike++
		}
	}
	if total == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no jobs to pattern")
	}
	return oda.Result{
		Summary: fmt.Sprintf("%d jobs: %d compute-intensive, %d memory/io-stalled", total, computeLike, stalledLike),
		Values: map[string]float64{
			"jobs": float64(total), "compute_like": float64(computeLike), "stalled_like": float64(stalledLike),
		},
	}, nil
}

// CodeIssues flags jobs whose measured runtime stretched far beyond their
// ideal runtime — the operational signal for inefficient code paths or
// pathological configurations worth a developer's look.
type CodeIssues struct {
	// StretchThreshold flags jobs slower than this factor (default 1.3).
	StretchThreshold float64
}

// Meta implements oda.Capability.
func (CodeIssues) Meta() oda.Meta {
	return oda.Meta{
		Name:        "code-issues",
		Description: "flag jobs with pathological runtime stretch for code review",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Diagnostic)},
		Refs:        []string{"[15]", "[27]"},
		Reads:       []oda.Resource{oda.ResJobQueue},
	}
}

// Run implements oda.Capability.
func (c CodeIssues) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	thr := c.StretchThreshold
	if thr <= 1 {
		thr = 1.3
	}
	var flagged, total int
	var worst float64
	worstID := ""
	for _, rec := range dc.Allocations() {
		if rec.End == 0 || rec.Killed {
			continue
		}
		total++
		stretch := rec.Job.RuntimeSeconds() / rec.Job.IdealRuntime()
		if stretch > thr {
			flagged++
		}
		if stretch > worst {
			worst = stretch
			worstID = rec.Job.ID
		}
	}
	if total == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no finished jobs")
	}
	return oda.Result{
		Summary: fmt.Sprintf("%d/%d jobs stretched >%.1fx; worst %s at %.2fx", flagged, total, thr, worstID, worst),
		Values: map[string]float64{
			"flagged": float64(flagged), "jobs": float64(total), "worst_stretch": worst,
		},
	}, nil
}

// Register adds the diagnostic capabilities that need no per-run
// parameters. RootCause and CrisisFingerprint are constructed ad hoc by
// their callers (they need a target node / a crisis library).
func Register(g *oda.Grid) error {
	caps := []oda.Capability{
		NodeAnomaly{}, NetContention{}, InfraAnomaly{}, StressTest{},
		RogueProcess{}, MemoryLeakDetector{}, AppFingerprint{},
		PerfPatterns{}, CodeIssues{}, LogEntropy{}, FailurePostmortem{},
	}
	for _, c := range caps {
		if err := g.Register(c); err != nil {
			return err
		}
	}
	return nil
}
