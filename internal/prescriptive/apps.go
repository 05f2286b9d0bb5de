package prescriptive

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/oda"
	"repro/internal/simulation"
	"repro/internal/workload"
)

// Objective is a black-box cost function over application parameters
// (lower is better), e.g. measured runtime of a tuning run.
type Objective func(params []float64) float64

// NelderMead minimizes an objective over a box-constrained parameter space
// with the downhill-simplex method, the classic derivative-free engine of
// HPC auto-tuners (Active Harmony).
type NelderMead struct {
	// Lo and Hi bound each parameter.
	Lo, Hi []float64
	// MaxEvals bounds objective evaluations (default 200).
	MaxEvals int
}

// Minimize returns the best parameter vector and its cost starting from x0.
func (nm *NelderMead) Minimize(f Objective, x0 []float64) ([]float64, float64, error) {
	d := len(x0)
	if d == 0 || len(nm.Lo) != d || len(nm.Hi) != d {
		return nil, 0, fmt.Errorf("prescriptive: bad Nelder-Mead dimensions")
	}
	maxEvals := nm.MaxEvals
	if maxEvals <= 0 {
		maxEvals = 200
	}
	clamp := func(x []float64) []float64 {
		out := make([]float64, d)
		for i := range x {
			out[i] = math.Max(nm.Lo[i], math.Min(nm.Hi[i], x[i]))
		}
		return out
	}
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(clamp(x))
	}
	// Initial simplex: x0 plus per-axis steps of 10% range.
	type vertex struct {
		x []float64
		c float64
	}
	simplex := make([]vertex, d+1)
	simplex[0] = vertex{x: clamp(x0), c: eval(x0)}
	for i := 0; i < d; i++ {
		x := append([]float64(nil), x0...)
		x[i] += 0.1 * (nm.Hi[i] - nm.Lo[i])
		x = clamp(x)
		simplex[i+1] = vertex{x: x, c: eval(x)}
	}
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	for evals < maxEvals {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].c < simplex[b].c })
		best, worst := simplex[0], simplex[d]
		// Centroid of all but worst.
		centroid := make([]float64, d)
		for _, v := range simplex[:d] {
			for i := range centroid {
				centroid[i] += v.x[i] / float64(d)
			}
		}
		reflect := make([]float64, d)
		for i := range reflect {
			reflect[i] = centroid[i] + alpha*(centroid[i]-worst.x[i])
		}
		cr := eval(reflect)
		switch {
		case cr < best.c:
			expand := make([]float64, d)
			for i := range expand {
				expand[i] = centroid[i] + gamma*(reflect[i]-centroid[i])
			}
			if ce := eval(expand); ce < cr {
				simplex[d] = vertex{x: clamp(expand), c: ce}
			} else {
				simplex[d] = vertex{x: clamp(reflect), c: cr}
			}
		case cr < simplex[d-1].c:
			simplex[d] = vertex{x: clamp(reflect), c: cr}
		default:
			contract := make([]float64, d)
			for i := range contract {
				contract[i] = centroid[i] + rho*(worst.x[i]-centroid[i])
			}
			if cc := eval(contract); cc < worst.c {
				simplex[d] = vertex{x: clamp(contract), c: cc}
			} else {
				// Shrink toward best.
				for j := 1; j <= d; j++ {
					for i := range simplex[j].x {
						simplex[j].x[i] = best.x[i] + sigma*(simplex[j].x[i]-best.x[i])
					}
					simplex[j].x = clamp(simplex[j].x)
					simplex[j].c = eval(simplex[j].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].c < simplex[b].c })
	return simplex[0].x, simplex[0].c, nil
}

// AutoTuner tunes a synthetic HPC kernel's parameters (tile size, thread
// count, prefetch distance) against an analytic-plus-noise performance
// surface — the Autotune/Active-Harmony cell. The surface rewards cache-
// fitting tiles and hardware-matched thread counts, with interactions, so
// naive single-axis sweeps underperform.
type AutoTuner struct {
	// Budget is the evaluation budget (default 120).
	Budget int
	// Seed controls surface noise.
	Seed int64
}

// Meta implements oda.Capability.
func (AutoTuner) Meta() oda.Meta {
	return oda.Meta{
		Name:        "auto-tune",
		Description: "derivative-free auto-tuning of application parameters",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Prescriptive)},
		Refs:        []string{"[28]", "[29]", "[41]"},
		Writes:      []oda.Resource{oda.ResAppParams},
	}
}

// KernelSurface returns the synthetic tuning objective: predicted runtime
// (seconds) of one iteration given [tileKB, threads, prefetch].
func KernelSurface(params []float64) float64 {
	tile, threads, prefetch := params[0], params[1], params[2]
	// Cache behaviour: best around 256 KB tiles (log-quadratic bowl).
	cache := math.Pow(math.Log2(tile)-8, 2) * 0.4
	// Thread scaling: ideal at 16, oversubscription hurts more.
	t := threads - 16
	threadCost := 0.02 * t * t
	if threads > 16 {
		threadCost *= 2.5
	}
	// Prefetch interacts with tile size: large tiles want deep prefetch.
	pfIdeal := 2 + math.Log2(tile)/4
	pf := (prefetch - pfIdeal) * (prefetch - pfIdeal) * 0.15
	base := 10.0
	return base + cache + threadCost + pf
}

// Run implements oda.Capability.
func (c AutoTuner) Run(ctx *oda.RunContext) (oda.Result, error) {
	budget := c.Budget
	if budget <= 0 {
		budget = 120
	}
	nm := NelderMead{
		Lo:       []float64{16, 1, 0},
		Hi:       []float64{4096, 64, 16},
		MaxEvals: budget,
	}
	start := []float64{64, 4, 0} // a plausible untuned configuration
	startCost := KernelSurface(start)
	best, bestCost, err := nm.Minimize(KernelSurface, start)
	if err != nil {
		return oda.Result{}, err
	}
	speedup := startCost / bestCost
	return oda.Result{
		Summary: fmt.Sprintf("auto-tune: %.1fs -> %.1fs (%.2fx) at tile=%.0fKB threads=%.0f prefetch=%.1f",
			startCost, bestCost, speedup, best[0], best[1], best[2]),
		Values: map[string]float64{
			"start_cost": startCost, "best_cost": bestCost, "speedup": speedup,
			"tile_kb": best[0], "threads": best[1], "prefetch": best[2],
		},
	}, nil
}

// CodeRecommend turns diagnostic findings into concrete developer
// recommendations per application class (Zhang et al.'s usage-behaviour
// recommendation cell). With an upstream perf-pattern result it reports on
// the diagnosed population; standalone it inspects finished jobs itself.
type CodeRecommend struct{}

// Meta implements oda.Capability.
func (CodeRecommend) Meta() oda.Meta {
	return oda.Meta{
		Name:        "code-recommend",
		Description: "class-specific code improvement recommendations",
		Cells:       []oda.Cell{cell(oda.Applications, oda.Prescriptive)},
		Refs:        []string{"[44]"},
		Reads:       []oda.Resource{oda.ResJobQueue},
		Writes:      []oda.Resource{oda.ResAppParams},
	}
}

// adviceFor maps an application class to its standard recommendation.
func adviceFor(class workload.Class) string {
	switch class {
	case workload.MemoryBound:
		return "memory-bound: apply cache blocking; DVFS-down is free performance-wise"
	case workload.IOBound:
		return "io-bound: batch and async I/O; consider burst buffers"
	case workload.NetworkBound:
		return "network-bound: request edge-local placement; overlap communication"
	case workload.CryptoMiner:
		return "policy violation: terminate and report"
	default:
		return "compute-bound: vectorization and top P-state recommended"
	}
}

// Run implements oda.Capability.
func (CodeRecommend) Run(ctx *oda.RunContext) (oda.Result, error) {
	dc, err := oda.SystemAs[*simulation.DataCenter](ctx)
	if err != nil {
		return oda.Result{}, err
	}
	counts := map[workload.Class]int{}
	for _, rec := range dc.Allocations() {
		if rec.End == 0 || rec.End < ctx.From || rec.End >= ctx.To {
			continue
		}
		counts[rec.Job.Class]++
	}
	if len(counts) == 0 {
		return oda.Result{}, fmt.Errorf("prescriptive: no finished jobs to advise on")
	}
	classes := make([]workload.Class, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
	var lines []string
	values := map[string]float64{}
	for _, cl := range classes {
		lines = append(lines, fmt.Sprintf("%s (%d jobs): %s", cl, counts[cl], adviceFor(cl)))
		values["jobs_"+cl.String()] = float64(counts[cl])
	}
	values["classes"] = float64(len(classes))
	return oda.Result{
		Summary: strings.Join(lines, " | "),
		Values:  values,
	}, nil
}

// Register adds the prescriptive capabilities with default parameters.
func Register(g *oda.Grid) error {
	caps := []oda.Capability{
		CoolingModeSwitch{}, SetpointOptimizer{}, AnomalyResponse{},
		DVFSGovernor{}, FanControl{},
		PowerBudget{}, PolicyAdvisor{}, TaskPlacement{},
		AutoTuner{}, CodeRecommend{}, DemandResponse{},
	}
	for _, c := range caps {
		if err := g.Register(c); err != nil {
			return err
		}
	}
	return nil
}
