package prescriptive

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/oda"
	"repro/internal/predictive"
	"repro/internal/scheduler"
	"repro/internal/simulation"
	"repro/internal/workload"
)

// PowerBudget caps system power by wiring a learned per-job power
// estimator (predictive ODA) into the power-aware scheduling policy — the
// Verma/Bash/Fan power-and-KPI-aware scheduling cell operating cross-type
// per §V-A.
type PowerBudget struct {
	// BudgetW is the IT power cap; 0 derives 85% of nameplate.
	BudgetW float64
}

// Meta implements oda.Capability.
func (PowerBudget) Meta() oda.Meta {
	return oda.Meta{
		Name:        "power-budget",
		Description: "system power cap enforced through predicted per-job power",
		Cells: []oda.Cell{
			cell(oda.SystemSoftware, oda.Prescriptive),
			cell(oda.Applications, oda.Predictive),
		},
		Refs:   []string{"[21]", "[22]", "[23]"},
		Reads:  []oda.Resource{oda.ResJobQueue, oda.StoreResource("node_power")},
		Writes: []oda.Resource{oda.ResPowerCap},
	}
}

// Run implements oda.Capability: trains the estimator on the window and
// installs budget + estimator into the live scheduler.
func (c PowerBudget) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	budget := c.BudgetW
	if budget <= 0 {
		budget = 0.85 * float64(len(dc.Nodes)) * 430
	}
	est, err := predictive.ResourceUsage{}.TrainedEstimator(ctx)
	if err != nil {
		return oda.Result{}, err
	}
	dc.Cluster.PowerBudgetW = budget
	dc.Cluster.EstimatePowerW = est
	return oda.Result{
		Summary: fmt.Sprintf("power budget %.0f W installed with learned per-job estimator", budget),
		Values:  map[string]float64{"budget_w": budget},
	}, nil
}

// PolicyAdvisor recommends (and applies, via runtime-prediction injection)
// the best scheduling configuration: it replays the recent queue through
// candidate policies (predictive what-if simulation) and additionally
// evaluates EASY with learned runtime predictions — plan-based scheduling
// informed by foresight (Zheng et al.).
type PolicyAdvisor struct{}

// Meta implements oda.Capability.
func (PolicyAdvisor) Meta() oda.Meta {
	return oda.Meta{
		Name:        "policy-advisor",
		Description: "scheduling policy recommendation from what-if replay",
		Cells: []oda.Cell{
			cell(oda.SystemSoftware, oda.Prescriptive),
			cell(oda.SystemSoftware, oda.Predictive),
		},
		Refs:   []string{"[43]", "[42]"},
		Reads:  []oda.Resource{oda.ResJobQueue, oda.StoreResource("node_")},
		Writes: []oda.Resource{oda.ResJobQueue},
	}
}

// Run implements oda.Capability.
func (PolicyAdvisor) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	var jobs []*workload.Job
	for _, rec := range dc.Allocations() {
		if rec.Job.SubmitTime >= ctx.From && rec.Job.SubmitTime < ctx.To {
			jobs = append(jobs, rec.Job)
		}
	}
	if len(jobs) < 5 {
		return oda.Result{}, fmt.Errorf("prescriptive: only %d jobs to advise from", len(jobs))
	}
	candidates := []scheduler.Policy{scheduler.FCFS{}, scheduler.EASY{}, scheduler.PlanBased{}}
	bestName, bestWait := "", math.Inf(1)
	values := map[string]float64{}
	for _, p := range candidates {
		m := predictive.Replay(jobs, dc.Cluster.TotalNodes(), p)
		values["wait_"+p.Name()] = m.MeanWaitSec
		if m.MeanWaitSec < bestWait {
			bestWait, bestName = m.MeanWaitSec, p.Name()
		}
	}
	// Foresight option: EASY plus learned runtime predictions tightens
	// backfill reservations.
	if pred, err := (predictive.JobDuration{}).TrainedPredictor(ctx); err == nil {
		c := scheduler.NewCluster(dc.Cluster.TotalNodes(), scheduler.EASY{})
		c.PredictRuntime = pred
		m := replayOn(c, jobs)
		values["wait_easy+pred"] = m.MeanWaitSec
		if m.MeanWaitSec < bestWait {
			bestWait, bestName = m.MeanWaitSec, "easy+pred"
		}
		// Install the prediction into the live scheduler either way: better
		// estimates never hurt EASY's reservation accuracy.
		dc.Cluster.PredictRuntime = pred
	}
	values["best_wait_s"] = bestWait
	return oda.Result{
		Summary: fmt.Sprintf("recommended policy %q (predicted mean wait %.0fs)", bestName, bestWait),
		Values:  values,
	}, nil
}

// replayOn drives a pre-configured cluster through the jobs (ideal
// runtimes), mirroring predictive.Replay but honouring the cluster's
// installed predictors.
func replayOn(c *scheduler.Cluster, jobs []*workload.Job) scheduler.Metrics {
	copies := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		cp := *j
		cp.StartTime, cp.EndTime, cp.DoneWork = 0, 0, 0
		copies[i] = &cp
	}
	sort.Slice(copies, func(a, b int) bool { return copies[a].SubmitTime < copies[b].SubmitTime })
	ji := 0
	var now int64
	if len(copies) > 0 {
		now = copies[0].SubmitTime
	}
	deadline := now + int64(14*24*3600*1000)
	for ; now < deadline; now += 10_000 {
		for ji < len(copies) && copies[ji].SubmitTime <= now {
			c.Submit(copies[ji])
			ji++
		}
		c.Tick(now)
		for _, a := range c.RunningJobs() {
			if float64(now-a.Job.StartTime)/1000 >= a.Job.IdealRuntime() {
				_ = c.Complete(a.Job.ID, now)
			}
		}
		if ji >= len(copies) && c.QueueLength() == 0 && len(c.RunningJobs()) == 0 {
			break
		}
	}
	return c.MetricsAt(now)
}

// TaskPlacement recommends node sets for queued multi-node jobs that
// minimize cross-edge traffic (Li et al.'s placement cell): it scores the
// scheduler's would-be compact placement against an edge-aligned one.
type TaskPlacement struct{}

// Meta implements oda.Capability.
func (TaskPlacement) Meta() oda.Meta {
	return oda.Meta{
		Name:        "task-placement",
		Description: "edge-aligned placement recommendations for queued jobs",
		Cells:       []oda.Cell{cell(oda.SystemSoftware, oda.Prescriptive)},
		Refs:        []string{"[42]"},
		Reads:       []oda.Resource{oda.ResJobQueue},
		Writes:      []oda.Resource{oda.ResJobQueue}, // placement prescriptions target the queue
	}
}

// RecommendNodes picks free nodes for a job, preferring whole edge-switch
// groups so traffic stays local. Returns nil if the job cannot fit.
func RecommendNodes(dc *simulation.DataCenter, freeNodes []int, want int) []int {
	if want > len(freeNodes) {
		return nil
	}
	// Group free nodes by edge.
	byEdge := map[int][]int{}
	for _, n := range freeNodes {
		e := dc.Net.EdgeOf(n)
		byEdge[e] = append(byEdge[e], n)
	}
	// Single edge with enough capacity: perfect locality.
	bestEdge, bestSpare := -1, math.MaxInt
	for e, nodes := range byEdge {
		if len(nodes) >= want && len(nodes)-want < bestSpare {
			bestEdge, bestSpare = e, len(nodes)-want
		}
	}
	if bestEdge >= 0 {
		nodes := append([]int(nil), byEdge[bestEdge]...)
		sort.Ints(nodes)
		return nodes[:want]
	}
	// Otherwise: fewest edges (greedy largest groups first).
	type group struct {
		edge  int
		nodes []int
	}
	groups := make([]group, 0, len(byEdge))
	for e, nodes := range byEdge {
		sort.Ints(nodes)
		groups = append(groups, group{edge: e, nodes: nodes})
	}
	sort.Slice(groups, func(a, b int) bool {
		if len(groups[a].nodes) != len(groups[b].nodes) {
			return len(groups[a].nodes) > len(groups[b].nodes)
		}
		return groups[a].edge < groups[b].edge
	})
	var out []int
	for _, g := range groups {
		for _, n := range g.nodes {
			if len(out) == want {
				return out
			}
			out = append(out, n)
		}
	}
	if len(out) == want {
		return out
	}
	return nil
}

// Run implements oda.Capability: evaluates how many queued jobs would
// get fully edge-local placements under the recommendation versus naive
// lowest-index packing.
func (TaskPlacement) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	// Reconstruct the free set from live allocations.
	busy := map[int]bool{}
	for _, a := range dc.Cluster.RunningJobs() {
		for _, n := range a.Nodes {
			busy[n] = true
		}
	}
	var free []int
	for i := range dc.Nodes {
		if !busy[i] && !dc.Nodes[i].Failed() {
			free = append(free, i)
		}
	}
	edgeSpan := func(nodes []int) int {
		es := map[int]bool{}
		for _, n := range nodes {
			es[dc.Net.EdgeOf(n)] = true
		}
		return len(es)
	}
	sizes := []int{2, 4, 8}
	var recBetter, evaluated int
	for _, want := range sizes {
		rec := RecommendNodes(dc, free, want)
		if rec == nil {
			continue
		}
		naive := append([]int(nil), free...)
		sort.Ints(naive)
		naive = naive[:want]
		evaluated++
		if edgeSpan(rec) <= edgeSpan(naive) {
			recBetter++
		}
	}
	if evaluated == 0 {
		return oda.Result{}, fmt.Errorf("prescriptive: no free capacity to evaluate placements")
	}
	return oda.Result{
		Summary: fmt.Sprintf("placement recommendations at least as local as naive packing in %d/%d cases",
			recBetter, evaluated),
		Values: map[string]float64{"evaluated": float64(evaluated), "recommendation_wins": float64(recBetter)},
	}, nil
}
