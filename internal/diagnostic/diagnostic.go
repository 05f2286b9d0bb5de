// Package diagnostic implements the framework's second analytics row:
// "why did it happen?". It covers the paper's diagnostic column end to end:
// node-level anomaly detection on multi-dimensional telemetry, root-cause
// ranking, network-contention diagnosis, facility anomaly detection and
// crisis fingerprinting, rogue-process/OS-noise identification, application
// fingerprinting (including cryptominer detection) and code-issue
// diagnosis.
package diagnostic

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/metric"
	"repro/internal/ml"
	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/stats"
)

func cell(p oda.Pillar, t oda.Type) oda.Cell { return oda.Cell{Pillar: p, Type: t} }

var siteLabels = metric.NewLabels("site", "vdc")

// nodeVectorNames are the per-node sensors fused into one feature vector.
var nodeVectorNames = []string{"node_power_watts", "node_cpu_temp_celsius", "node_utilization", "node_fan_speed"}

// nodeVectors extracts one feature vector (power, temp, utilization, fan)
// per collection instant for a node, aligned on the power series timestamps:
// row i holds every series' i-th sample of the window, for as many rows as
// the shortest series has.
func nodeVectors(ctx *oda.RunContext, nodeLabels metric.Labels, from, to int64) (*ml.Matrix, []int64, error) {
	cols := make([][]float64, len(nodeVectorNames))
	var times []int64
	err := ctx.Store.Each(metric.ID{Name: nodeVectorNames[0], Labels: nodeLabels}, from, to, func(sm metric.Sample) bool {
		times = append(times, sm.T)
		cols[0] = append(cols[0], sm.V)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	rows := len(times)
	for j := 1; j < len(nodeVectorNames); j++ {
		vals, err := ctx.Store.SeriesValues(metric.ID{Name: nodeVectorNames[j], Labels: nodeLabels}, from, to, 0)
		if err != nil {
			return nil, nil, err
		}
		cols[j] = vals
		rows = min(rows, len(vals))
	}
	if rows == 0 {
		return nil, nil, fmt.Errorf("diagnostic: no aligned telemetry for %s", nodeLabels)
	}
	data := make([]float64, 0, rows*len(cols))
	for i := 0; i < rows; i++ {
		for _, col := range cols {
			data = append(data, col[i])
		}
	}
	return &ml.Matrix{Rows: rows, Cols: len(cols), Data: data}, times[:rows], nil
}

// NodeAnomaly is PCA-subspace anomaly detection over per-node sensor
// vectors (Borghesi/Guan/Netti-style): it learns normal cross-sensor
// structure on a training prefix of the window and scores the rest.
type NodeAnomaly struct {
	// TrainFrac of the window establishes normal behaviour (default 0.5).
	TrainFrac float64
	// Threshold scales the subspace alarm level (default 1.5).
	Threshold float64
}

// Meta implements oda.Capability.
func (NodeAnomaly) Meta() oda.Meta {
	return oda.Meta{
		Name:        "node-anomaly",
		Description: "PCA-subspace anomaly detection on node sensor vectors",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Diagnostic)},
		Refs:        []string{"[17]", "[26]", "[47]"},
		Reads:       []oda.Resource{oda.StoreResource("node_")},
	}
}

// Run implements oda.Capability. Values include per-detection counts; the
// summary names the anomalous nodes.
func (c NodeAnomaly) Run(ctx *oda.RunContext) (oda.Result, error) {
	trainFrac := c.TrainFrac
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.5
	}
	thr := c.Threshold
	if thr <= 0 {
		thr = 1.5
	}
	split := ctx.From + int64(float64(ctx.To-ctx.From)*trainFrac)
	powerIDs := ctx.Store.Select("node_power_watts", nil)
	if len(powerIDs) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no node telemetry")
	}
	// Train one fleet-wide model on healthy-phase vectors of all nodes, so
	// a node deviating from fleet structure stands out. Per-node matrices
	// are row-major, so their data concatenates into the training matrix
	// without per-row copies.
	var trainData []float64
	trainRows := 0
	type nodeData struct {
		name string
		m    *ml.Matrix
	}
	var detectData []nodeData
	for _, id := range powerIDs {
		name, _ := id.Labels.Get("node")
		trainM, _, err := nodeVectors(ctx, id.Labels, ctx.From, split)
		if err != nil {
			continue
		}
		trainData = append(trainData, trainM.Data...)
		trainRows += trainM.Rows
		detectM, _, err := nodeVectors(ctx, id.Labels, split, ctx.To)
		if err != nil {
			continue
		}
		detectData = append(detectData, nodeData{name: name, m: detectM})
	}
	if trainRows < 8 {
		return oda.Result{}, fmt.Errorf("diagnostic: too little training telemetry (%d rows)", trainRows)
	}
	train := &ml.Matrix{Rows: trainRows, Cols: len(nodeVectorNames), Data: trainData}
	// Standardize features: raw sensor scales differ by orders of magnitude
	// and would otherwise let node power dominate the subspace.
	var scaler ml.StandardScaler
	scaler.Fit(train)
	sub := anomaly.Subspace{Threshold: thr}
	if err := sub.Fit(scaler.Transform(train)); err != nil {
		return oda.Result{}, err
	}
	anomalousNodes := map[string]int{}
	var totalEvents, totalVectors int
	for _, nd := range detectData {
		events, err := sub.DetectRows(scaler.Transform(nd.m))
		if err != nil {
			return oda.Result{}, err
		}
		totalVectors += nd.m.Rows
		totalEvents += len(events)
		// A node is anomalous when a non-trivial share of its window is
		// flagged (isolated flickers are sensor noise).
		if nd.m.Rows > 0 && float64(len(events))/float64(nd.m.Rows) > 0.2 {
			anomalousNodes[nd.name] = len(events)
		}
	}
	names := make([]string, 0, len(anomalousNodes))
	for n := range anomalousNodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return oda.Result{
		Summary: fmt.Sprintf("%d anomalous nodes [%s]; %d/%d vectors flagged",
			len(names), strings.Join(names, " "), totalEvents, totalVectors),
		Values: map[string]float64{
			"anomalous_nodes": float64(len(names)),
			"events":          float64(totalEvents),
			"vectors":         float64(totalVectors),
		},
	}, nil
}

// AnomalousNodes runs the detector and returns just the node names, for
// composition with RootCause and response systems.
func (c NodeAnomaly) AnomalousNodes(ctx *oda.RunContext) ([]string, error) {
	res, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}
	fields := strings.SplitN(res.Summary, "[", 2)
	if len(fields) < 2 {
		return nil, nil
	}
	inner := strings.SplitN(fields[1], "]", 2)[0]
	if inner == "" {
		return nil, nil
	}
	return strings.Fields(inner), nil
}

// RootCause ranks which signals best explain a node's temperature anomaly
// by correlating the suspect series against candidate causes (its own fan,
// utilization, power and the facility supply temperature) — AutoDiagn-style
// automated "why".
type RootCause struct {
	// Node is the suspect node label value; required.
	Node string
}

// Meta implements oda.Capability.
func (RootCause) Meta() oda.Meta {
	return oda.Meta{
		Name:        "root-cause",
		Description: "correlation-ranked root-cause analysis for node anomalies",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Diagnostic)},
		Refs:        []string{"[9]"},
		Reads: []oda.Resource{
			oda.StoreResource("node_"),
			oda.StoreResource("facility_supply_temp"),
		},
	}
}

// Run implements oda.Capability.
func (c RootCause) Run(ctx *oda.RunContext) (oda.Result, error) {
	if c.Node == "" {
		return oda.Result{}, fmt.Errorf("diagnostic: RootCause needs a target node")
	}
	sel := metric.NewLabels("node", c.Node)
	ids := ctx.Store.Select("node_cpu_temp_celsius", sel)
	if len(ids) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no temperature series for node %s", c.Node)
	}
	target, err := ctx.Store.SeriesValues(ids[0], ctx.From, ctx.To, 0)
	if err != nil || len(target) < 4 {
		return oda.Result{}, fmt.Errorf("diagnostic: too little data for node %s", c.Node)
	}
	candidates := map[string][]float64{}
	for _, name := range []string{"node_fan_speed", "node_utilization", "node_power_watts"} {
		cids := ctx.Store.Select(name, sel)
		if len(cids) == 1 {
			if vals, err := ctx.Store.SeriesValues(cids[0], ctx.From, ctx.To, 0); err == nil {
				candidates[name] = vals
			}
		}
	}
	supplyID := metric.ID{Name: "facility_supply_temp_celsius", Labels: siteLabels}
	if vals, err := ctx.Store.SeriesValues(supplyID, ctx.From, ctx.To, 0); err == nil {
		candidates["facility_supply_temp_celsius"] = vals
	}
	type ranked struct {
		name string
		r    float64
	}
	var ranking []ranked
	values := map[string]float64{}
	for name, vals := range candidates {
		n := len(target)
		if len(vals) < n {
			n = len(vals)
		}
		r, err := stats.Pearson(target[:n], vals[:n])
		if err != nil {
			continue
		}
		ranking = append(ranking, ranked{name: name, r: r})
		values["corr_"+name] = r
	}
	if len(ranking) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: no candidate signals for node %s", c.Node)
	}
	sort.Slice(ranking, func(a, b int) bool {
		if math.Abs(ranking[a].r) != math.Abs(ranking[b].r) {
			return math.Abs(ranking[a].r) > math.Abs(ranking[b].r)
		}
		return ranking[a].name < ranking[b].name
	})
	top := ranking[0]
	values["top_corr"] = top.r
	return oda.Result{
		Summary: fmt.Sprintf("node %s temperature best explained by %s (r=%.2f)", c.Node, top.name, top.r),
		Values:  values,
	}, nil
}

// NetContention diagnoses inter-job network interference from link
// telemetry: saturated uplinks plus the placement log identify which jobs
// contend, the Overtime / link-level-analysis use case.
type NetContention struct{}

// Meta implements oda.Capability.
func (NetContention) Meta() oda.Meta {
	return oda.Meta{
		Name:        "net-contention",
		Description: "network contention diagnosis from uplink telemetry and placements",
		Cells:       []oda.Cell{cell(oda.SystemHardware, oda.Diagnostic)},
		Refs:        []string{"[19]", "[55]"},
		Reads:       []oda.Resource{oda.StoreResource("net_uplink"), oda.ResJobQueue},
	}
}

// Run implements oda.Capability.
func (NetContention) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	// Find saturated uplinks in the window.
	saturated := map[int]bool{}
	for _, id := range ctx.Store.Select("net_uplink_utilization", nil) {
		vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, 0)
		if err != nil || len(vals) == 0 {
			continue
		}
		peak, _ := stats.Quantile(vals, 0.99)
		if peak > 100 {
			edgeName, _ := id.Labels.Get("edge")
			var edge int
			if _, err := fmt.Sscanf(edgeName, "e%d", &edge); err == nil {
				saturated[edge] = true
			}
		}
	}
	// Suspects: jobs whose allocation spans a saturated edge during overlap
	// with the window.
	suspects := map[string]bool{}
	edgeOf := dc.Net.EdgeOf
	for _, rec := range dc.Allocations() {
		end := rec.End
		if end == 0 {
			end = ctx.To
		}
		if end < ctx.From || rec.Start >= ctx.To {
			continue
		}
		edges := map[int]bool{}
		for _, n := range rec.Nodes {
			edges[edgeOf(n)] = true
		}
		if len(edges) < 2 {
			continue // intra-edge jobs cannot contend on uplinks
		}
		for e := range edges {
			if saturated[e] {
				suspects[rec.Job.ID] = true
			}
		}
	}
	names := make([]string, 0, len(suspects))
	for id := range suspects {
		names = append(names, id)
	}
	sort.Strings(names)
	return oda.Result{
		Summary: fmt.Sprintf("%d saturated uplinks; %d suspect jobs [%s]",
			len(saturated), len(names), strings.Join(names, " ")),
		Values: map[string]float64{
			"saturated_uplinks": float64(len(saturated)),
			"suspect_jobs":      float64(len(names)),
		},
	}, nil
}

// InfraAnomaly runs robust detectors over facility plant series (cooling
// power, pump power, supply temperature), the NREL "AI ops" use case.
type InfraAnomaly struct{}

// Meta implements oda.Capability.
func (InfraAnomaly) Meta() oda.Meta {
	return oda.Meta{
		Name:        "infra-anomaly",
		Description: "robust anomaly detection on facility plant telemetry",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Diagnostic)},
		Refs:        []string{"[54]"},
		Reads:       []oda.Resource{oda.StoreResource("facility_")},
	}
}

// Run implements oda.Capability.
func (InfraAnomaly) Run(ctx *oda.RunContext) (oda.Result, error) {
	series := []string{"facility_cooling_power_watts", "facility_pump_power_watts", "facility_supply_temp_celsius"}
	det := anomaly.Ensemble{Members: []anomaly.Detector{
		&anomaly.MAD{Threshold: 5},
		&anomaly.ZScore{Window: 30, Threshold: 5},
	}, Quorum: 2}
	values := map[string]float64{}
	var total int
	var parts []string
	for _, name := range series {
		id := metric.ID{Name: name, Labels: siteLabels}
		vals, err := ctx.Store.SeriesValues(id, ctx.From, ctx.To, 0)
		if err != nil {
			return oda.Result{}, err
		}
		events := det.Detect(vals)
		values["events_"+name] = float64(len(events))
		total += len(events)
		parts = append(parts, fmt.Sprintf("%s=%d", strings.TrimPrefix(name, "facility_"), len(events)))
	}
	values["events_total"] = float64(total)
	return oda.Result{
		Summary: "facility anomaly events: " + strings.Join(parts, ", "),
		Values:  values,
	}, nil
}

// CrisisFingerprint matches the current facility state epoch against a
// library of labelled fingerprints (Bodik et al.), answering "which known
// crisis does this look like?".
type CrisisFingerprint struct {
	// Library holds labelled reference fingerprints; use BuildEpoch to
	// construct them from telemetry windows.
	Library []anomaly.Fingerprint
}

// Meta implements oda.Capability.
func (CrisisFingerprint) Meta() oda.Meta {
	return oda.Meta{
		Name:        "crisis-fingerprint",
		Description: "fingerprint matching of facility state epochs against known crises",
		Cells:       []oda.Cell{cell(oda.BuildingInfrastructure, oda.Diagnostic)},
		Refs:        []string{"[38]"},
		Reads:       []oda.Resource{oda.StoreResource("facility_")},
	}
}

// fingerprintMetrics are the facility series an epoch summarizes.
var fingerprintMetrics = []string{
	"facility_pue", "facility_cooling_power_watts",
	"facility_it_power_watts", "facility_supply_temp_celsius",
}

// BuildEpoch summarizes a telemetry window into a fingerprint.
func BuildEpoch(ctx *oda.RunContext, label string, from, to int64) (anomaly.Fingerprint, error) {
	var metrics [][]float64
	for _, name := range fingerprintMetrics {
		id := metric.ID{Name: name, Labels: siteLabels}
		vals, err := ctx.Store.SeriesValues(id, from, to, 0)
		if err != nil || len(vals) == 0 {
			return anomaly.Fingerprint{}, fmt.Errorf("diagnostic: no %s in epoch", name)
		}
		metrics = append(metrics, vals)
	}
	return anomaly.MakeFingerprint(label, metrics)
}

// Run implements oda.Capability: it fingerprints the context window and
// matches it against the library.
func (c CrisisFingerprint) Run(ctx *oda.RunContext) (oda.Result, error) {
	if len(c.Library) == 0 {
		return oda.Result{}, fmt.Errorf("diagnostic: empty crisis library")
	}
	idx, err := anomaly.NewFingerprintIndex(c.Library)
	if err != nil {
		return oda.Result{}, err
	}
	probe, err := BuildEpoch(ctx, "", ctx.From, ctx.To)
	if err != nil {
		return oda.Result{}, err
	}
	label, dist, err := idx.Match(probe)
	if err != nil {
		return oda.Result{}, err
	}
	return oda.Result{
		Summary: fmt.Sprintf("epoch matches %q (distance %.3f) among %d known states", label, dist, idx.Size()),
		Values:  map[string]float64{"distance": dist, "library": float64(idx.Size())},
	}, nil
}
