// Package simulation binds the substrate models — facility plant, node
// hardware, interconnect, scheduler and workload generator — into a
// discrete-time virtual data center that produces the cluster-like telemetry
// the paper's ODA use cases consume.
//
// The engine advances physics on a fixed step, runs collection agents on
// their own cadence into a TSDB, and invokes registered
// controllers (the prescriptive ODA hook) on a control cadence. Everything
// is deterministic under a seed.
package simulation

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/collector"
	"repro/internal/events"
	"repro/internal/facility"
	"repro/internal/hardware"
	"repro/internal/metric"
	"repro/internal/network"
	"repro/internal/scheduler"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Config describes the virtual data center.
type Config struct {
	// Nodes is the machine size; racks hold 16 nodes each.
	Nodes int
	// Seed drives every stochastic element.
	Seed int64
	// StepSeconds is the physics step (default 10).
	StepSeconds float64
	// CollectSeconds is the telemetry cadence (default 60).
	CollectSeconds float64
	// ControlSeconds is the controller cadence (default 300).
	ControlSeconds float64
	// RepairHours is how long a failed node stays down (default 12).
	RepairHours float64
	// Workload tunes the job stream; zero value uses defaults.
	Workload workload.GeneratorConfig
	// TraceJobs, when non-empty, replays a recorded workload instead of
	// the synthetic generator (jobs are deep-copied, so the caller's trace
	// survives the run).
	TraceJobs []*workload.Job
	// Policy is the scheduling policy (default EASY).
	Policy scheduler.Policy
	// DesignPowerW sizes the facility plant (default derived from nodes).
	DesignPowerW float64
	// UplinkCapacity overrides the fabric's per-edge uplink bandwidth in
	// bytes/second (0 keeps the default 40 GB/s); experiments shrink it to
	// study contention.
	UplinkCapacity float64
}

// DefaultConfig returns a 64-node virtual center.
func DefaultConfig(seed int64) Config {
	return Config{
		Nodes:          64,
		Seed:           seed,
		StepSeconds:    10,
		CollectSeconds: 60,
		ControlSeconds: 300,
		RepairHours:    12,
		Workload:       workload.DefaultGeneratorConfig(seed, 32),
		Policy:         scheduler.EASY{},
	}
}

// Controller is the prescriptive-ODA hook: it observes the data center
// (usually through the Store) and actuates knobs (facility setpoint, node
// DVFS, scheduler budget) each control interval.
type Controller interface {
	Name() string
	Control(dc *DataCenter, now int64)
}

// ControllerFunc adapts a function to Controller.
type ControllerFunc struct {
	ControllerName string
	Fn             func(dc *DataCenter, now int64)
}

// Name implements Controller.
func (c ControllerFunc) Name() string { return c.ControllerName }

// Control implements Controller.
func (c ControllerFunc) Control(dc *DataCenter, now int64) { c.Fn(dc, now) }

// DataCenter is the assembled virtual facility.
type DataCenter struct {
	Cfg Config

	Nodes    []*hardware.Node
	Facility *facility.Facility
	Net      *network.Network
	Cluster  *scheduler.Cluster
	Gen      *workload.Generator

	Store  *timeseries.Store
	Agent  *collector.Agent
	Events *events.Log

	controllers []Controller

	now         int64
	nextJob     *workload.Job
	trace       []*workload.Job // replay queue when Config.TraceJobs is set
	traceIdx    int
	lastCollect int64
	lastControl int64

	repairAt  map[int]int64  // node index -> time repaired
	anomalies map[int]string // node index -> injected anomaly kind

	// Counters for experiment reporting.
	SubmittedJobs int
	KilledJobs    int
	FailureEvents int

	// allocLog records every job placement for job-telemetry attribution.
	allocLog   []*AllocationRecord
	allocByJob map[string]*AllocationRecord

	rng *rand.Rand

	nodeByName map[string]*hardware.Node // name -> node fast path
}

// New assembles a data center from the config.
func New(cfg Config) *DataCenter {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 64
	}
	if cfg.StepSeconds <= 0 {
		cfg.StepSeconds = 10
	}
	if cfg.CollectSeconds <= 0 {
		cfg.CollectSeconds = 60
	}
	if cfg.ControlSeconds <= 0 {
		cfg.ControlSeconds = 300
	}
	if cfg.RepairHours <= 0 {
		cfg.RepairHours = 12
	}
	if cfg.Policy == nil {
		cfg.Policy = scheduler.EASY{}
	}
	if cfg.Workload.MaxNodes == 0 {
		cfg.Workload = workload.DefaultGeneratorConfig(cfg.Seed, cfg.Nodes/2)
	}
	if cfg.DesignPowerW <= 0 {
		cfg.DesignPowerW = float64(cfg.Nodes) * 420
	}

	netCfg := network.DefaultConfig(cfg.Nodes)
	if cfg.UplinkCapacity > 0 {
		netCfg.UplinkCapacity = cfg.UplinkCapacity
	}
	dc := &DataCenter{
		Cfg:        cfg,
		Facility:   facility.New(facility.DefaultConfig(cfg.DesignPowerW), cfg.Seed+1),
		Net:        network.New(netCfg),
		Cluster:    scheduler.NewCluster(cfg.Nodes, cfg.Policy),
		Gen:        workload.NewGenerator(cfg.Workload),
		Store:      timeseries.NewStore(0, timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h)),
		Events:     events.NewLog(1 << 16),
		repairAt:   make(map[int]int64),
		anomalies:  make(map[int]string),
		allocByJob: make(map[string]*AllocationRecord),
		rng:        rand.New(rand.NewSource(cfg.Seed + 2)),
		nodeByName: make(map[string]*hardware.Node, cfg.Nodes),
	}
	// The engine's own sinks stay synchronous (queue depth 0): controllers
	// and capabilities read the store on virtual time, so a collection
	// round's telemetry must be visible the instant Tick returns.
	// Deployments that attach external sinks (wire push) should register
	// them with AddSinkQueued so network latency never stalls the step
	// loop, and call Close to drain them.
	dc.Agent = collector.NewAgent("vdc-agent", 0)
	dc.Agent.AddSink(&collector.StoreSink{Store: dc.Store})

	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("n%03d", i)
		rack := fmt.Sprintf("r%02d", i/16)
		node := hardware.NewNode(hardware.DefaultNodeConfig(name, rack), cfg.Seed+10+int64(i))
		dc.Nodes = append(dc.Nodes, node)
		dc.nodeByName[name] = node
		dc.Agent.AddSource(node.Source())
	}
	dc.Agent.AddSource(dc.Facility.Source())
	dc.Agent.AddSource(dc.Net.Source())
	dc.Agent.AddSource(dc.schedulerSource())

	if len(cfg.TraceJobs) > 0 {
		dc.trace = make([]*workload.Job, len(cfg.TraceJobs))
		for i, j := range cfg.TraceJobs {
			cp := *j
			cp.StartTime, cp.EndTime, cp.DoneWork = 0, 0, 0
			dc.trace[i] = &cp
		}
		sortJobsBySubmit(dc.trace)
	} else {
		dc.nextJob = dc.Gen.NextAfter(0)
	}
	return dc
}

func sortJobsBySubmit(jobs []*workload.Job) {
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].SubmitTime < jobs[b].SubmitTime })
}

// schedulerSource exposes queue telemetry.
func (dc *DataCenter) schedulerSource() collector.Source {
	labels := metric.NewLabels("site", "vdc")
	return collector.SourceFunc{
		SourceName: "scheduler",
		Fn: func(now int64) []collector.Reading {
			m := dc.Cluster.MetricsAt(now)
			return []collector.Reading{
				{ID: metric.ID{Name: "sched_queue_length", Labels: labels}, Kind: metric.Gauge, Unit: metric.UnitCount, Value: float64(m.QueuedJobs)},
				{ID: metric.ID{Name: "sched_running_jobs", Labels: labels}, Kind: metric.Gauge, Unit: metric.UnitCount, Value: float64(len(dc.Cluster.RunningJobs()))},
				{ID: metric.ID{Name: "sched_utilization", Labels: labels}, Kind: metric.Gauge, Unit: metric.UnitPercent, Value: m.Utilization * 100},
				{ID: metric.ID{Name: "sched_finished_jobs", Labels: labels}, Kind: metric.Counter, Unit: metric.UnitCount, Value: float64(m.FinishedJobs)},
			}
		},
	}
}

// AddController registers a prescriptive controller.
func (dc *DataCenter) AddController(c Controller) {
	dc.controllers = append(dc.controllers, c)
}

// Now returns the current virtual time in Unix milliseconds.
func (dc *DataCenter) Now() int64 { return dc.now }

// ITPower returns the current total IT draw in watts, summed in node order.
func (dc *DataCenter) ITPower() float64 {
	var p float64
	for _, n := range dc.Nodes {
		p += n.Power()
	}
	return p
}

// Step advances the simulation by one physics step.
func (dc *DataCenter) Step() {
	dtMs := int64(dc.Cfg.StepSeconds * 1000)
	dc.now += dtMs
	now := dc.now
	dt := dc.Cfg.StepSeconds

	// 1. Repair nodes whose downtime has elapsed and return them to service.
	// Iterate in node order (not map order) so event logs and scheduler
	// state stay deterministic when several nodes repair on the same step.
	if len(dc.repairAt) > 0 {
		idxs := make([]int, 0, len(dc.repairAt))
		for idx := range dc.repairAt {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if now >= dc.repairAt[idx] {
				dc.Nodes[idx].Repair()
				dc.Cluster.SetNodeOnline(idx)
				delete(dc.repairAt, idx)
				dc.Events.Appendf(now, events.Info, "node/"+dc.Nodes[idx].Name(), "node_repair", "returned to service")
			}
		}
	}

	// 2. Submit due jobs (trace replay takes precedence over generation).
	if dc.trace != nil {
		for dc.traceIdx < len(dc.trace) && dc.trace[dc.traceIdx].SubmitTime <= now {
			j := dc.trace[dc.traceIdx]
			dc.Cluster.Submit(j)
			dc.SubmittedJobs++
			dc.traceIdx++
			dc.Events.Appendf(now, events.Info, "scheduler", "job_submit", "%s by %s (%d nodes)", j.ID, j.User, j.Nodes)
		}
	} else {
		for dc.nextJob != nil && dc.nextJob.SubmitTime <= now {
			j := dc.nextJob
			dc.Cluster.Submit(j)
			dc.SubmittedJobs++
			dc.nextJob = dc.Gen.NextAfter(j.SubmitTime)
			dc.Events.Appendf(now, events.Info, "scheduler", "job_submit", "%s by %s (%d nodes)", j.ID, j.User, j.Nodes)
		}
	}

	// 3. Scheduling cycle.
	dc.Cluster.CurrentPowerW = dc.ITPower()
	for _, alloc := range dc.Cluster.Tick(now) {
		rec := &AllocationRecord{
			Job:   alloc.Job,
			Nodes: append([]int(nil), alloc.Nodes...),
			Start: now,
		}
		dc.allocLog = append(dc.allocLog, rec)
		dc.allocByJob[alloc.Job.ID] = rec
		dc.Events.Appendf(now, events.Info, "scheduler", "job_start", "%s on %d nodes", alloc.Job.ID, len(alloc.Nodes))
	}

	// 4. Apply job phases to nodes and network.
	running := dc.Cluster.RunningJobs()
	busyNodes := make(map[int]bool, dc.Cfg.Nodes)
	for _, alloc := range running {
		ph := alloc.Job.PhaseAt()
		slow := dc.Net.Slowdown(alloc.Job.ID)
		for _, idx := range alloc.Nodes {
			busyNodes[idx] = true
			dc.Nodes[idx].SetLoad(hardware.Load{
				Utilization:     ph.Utilization,
				ComputeFrac:     ph.ComputeFrac,
				MemoryFrac:      ph.MemoryFrac,
				IOFrac:          ph.IOFrac,
				NetworkSlowdown: slow,
			})
		}
		dc.Net.Assign(alloc.Job.ID, alloc.Nodes, ph.NetDemand)
	}
	for idx, n := range dc.Nodes {
		if !busyNodes[idx] {
			n.SetLoad(hardware.Load{})
		}
	}
	dc.applyAnomalies()
	dc.Net.Step(dt)

	// 5. Step node physics and advance job progress.
	supply := dc.Facility.State().SupplyTemp
	if supply == 0 {
		supply = dc.Facility.Setpoint()
	}
	// The power sum accumulates in node order: itPower feeds the facility
	// model, so its float association is part of the telemetry's bytes.
	var itPower float64
	for _, n := range dc.Nodes {
		itPower += n.Step(dt, supply)
	}
	for _, alloc := range running {
		var progress float64
		var failedNode bool
		for _, idx := range alloc.Nodes {
			node := dc.Nodes[idx]
			if node.Failed() {
				failedNode = true
				break
			}
			progress += node.Progress() * dt
		}
		if failedNode {
			// Node failure kills the job; step 5b offlines the node.
			_ = dc.Cluster.Complete(alloc.Job.ID, now)
			dc.Net.Remove(alloc.Job.ID)
			dc.closeAllocation(alloc.Job.ID, now, true)
			dc.KilledJobs++
			dc.Events.Appendf(now, events.Error, "scheduler", "job_killed", "%s lost a node", alloc.Job.ID)
			for _, idx := range alloc.Nodes {
				if !dc.Nodes[idx].Failed() {
					dc.Nodes[idx].SetLoad(hardware.Load{})
				}
			}
			continue
		}
		alloc.Job.DoneWork += progress
		if alloc.Job.Finished() {
			_ = dc.Cluster.Complete(alloc.Job.ID, now)
			dc.Net.Remove(alloc.Job.ID)
			dc.closeAllocation(alloc.Job.ID, now, false)
			dc.Events.Appendf(now, events.Info, "scheduler", "job_end", "%s after %.0fs", alloc.Job.ID, alloc.Job.RuntimeSeconds())
			for _, idx := range alloc.Nodes {
				dc.Nodes[idx].SetLoad(hardware.Load{})
			}
		}
	}

	// 5b. Take newly failed nodes out of the schedulable pool.
	for idx, n := range dc.Nodes {
		if n.Failed() {
			if _, pending := dc.repairAt[idx]; !pending {
				dc.repairAt[idx] = now + int64(dc.Cfg.RepairHours*3600*1000)
				dc.FailureEvents++
				dc.Cluster.SetNodeOffline(idx)
				dc.Events.Appendf(now, events.Error, "node/"+n.Name(), "node_fail",
					"hardware failure at %.1fC", n.Temperature())
			}
		}
	}

	// 6. Facility follows the IT load.
	dc.Facility.Step(dt, now, itPower)

	// 7. Telemetry cadence.
	if now-dc.lastCollect >= int64(dc.Cfg.CollectSeconds*1000) {
		dc.Agent.Tick(now)
		dc.lastCollect = now
	}

	// 8. Control cadence.
	if now-dc.lastControl >= int64(dc.Cfg.ControlSeconds*1000) {
		for _, c := range dc.controllers {
			c.Control(dc, now)
		}
		dc.lastControl = now
	}
}

// RunFor advances the simulation by the given number of virtual seconds.
func (dc *DataCenter) RunFor(seconds float64) {
	end := dc.now + int64(seconds*1000)
	for dc.now < end {
		dc.Step()
	}
}

// RunUntil advances to the given virtual time (Unix millis).
func (dc *DataCenter) RunUntil(t int64) {
	for dc.now < t {
		dc.Step()
	}
}

// Close shuts the data center's collection pipeline down, draining any
// queued sinks attached to the agent (the built-in store sink is
// synchronous and never holds a backlog). Call it when a run finishes so
// externally attached sinks — a wire push to an aggregation daemon, say —
// flush every batch they accepted.
func (dc *DataCenter) Close() {
	dc.Agent.Close()
}

// AllocationRecord is a historical job placement.
type AllocationRecord struct {
	Job    *workload.Job
	Nodes  []int
	Start  int64
	End    int64 // 0 while running
	Killed bool
}

func (dc *DataCenter) closeAllocation(jobID string, now int64, killed bool) {
	if rec, ok := dc.allocByJob[jobID]; ok {
		rec.End = now
		rec.Killed = killed
	}
}

// Allocations returns the placement history (running allocations have
// End == 0). The returned slice is shared; treat it as read-only.
func (dc *DataCenter) Allocations() []*AllocationRecord { return dc.allocLog }

// ActuatorState is a snapshot of every actuation surface the oda.Resource
// taxonomy names: "cooling" covers Mode, SetpointC and FanDuty; "node-dvfs"
// covers FrequencyIndex; "power-cap" covers PowerBudgetW and the two
// estimator hooks; "job-queue" covers QueueLength. Comparable with
// reflect.DeepEqual, which is what the schedule-equivalence tests use to
// prove the final actuator state is worker-count independent.
type ActuatorState struct {
	CoolingMode    string
	SetpointC      float64
	FanDuty        []float64
	FrequencyIndex []int
	PowerBudgetW   float64
	PowerEstimator bool
	RuntimePredict bool
	QueueLength    int
}

// ActuatorState snapshots the center's actuation surfaces.
func (dc *DataCenter) ActuatorState() ActuatorState {
	st := ActuatorState{
		CoolingMode:    dc.Facility.Mode().String(),
		SetpointC:      dc.Facility.Setpoint(),
		FanDuty:        make([]float64, len(dc.Nodes)),
		FrequencyIndex: make([]int, len(dc.Nodes)),
		PowerBudgetW:   dc.Cluster.PowerBudgetW,
		PowerEstimator: dc.Cluster.EstimatePowerW != nil,
		RuntimePredict: dc.Cluster.PredictRuntime != nil,
		QueueLength:    dc.Cluster.QueueLength(),
	}
	for i, n := range dc.Nodes {
		st.FanDuty[i] = n.FanSpeed()
		st.FrequencyIndex[i] = n.FrequencyIndex()
	}
	return st
}

// AllocationFor returns a job's placement record.
func (dc *DataCenter) AllocationFor(jobID string) (*AllocationRecord, bool) {
	rec, ok := dc.allocByJob[jobID]
	return rec, ok
}

// NodeByName finds a node by its configured name in O(1).
func (dc *DataCenter) NodeByName(name string) *hardware.Node {
	return dc.nodeByName[name]
}

// InjectAnomaly forces a persistent synthetic misbehaviour used by the
// diagnostic experiments: kind "thermal" pins a node's fans low, "power"
// runs a crypto-miner-like load outside the scheduler's view. ClearAnomaly
// removes it.
func (dc *DataCenter) InjectAnomaly(nodeIdx int, kind string) error {
	if nodeIdx < 0 || nodeIdx >= len(dc.Nodes) {
		return fmt.Errorf("simulation: node %d out of range", nodeIdx)
	}
	if kind != "thermal" && kind != "power" {
		return fmt.Errorf("simulation: unknown anomaly %q", kind)
	}
	dc.anomalies[nodeIdx] = kind
	return nil
}

// ClearAnomaly removes an injected anomaly.
func (dc *DataCenter) ClearAnomaly(nodeIdx int) {
	delete(dc.anomalies, nodeIdx)
}

// FailNodes force-fails count nodes starting at index start (clamped to
// the fleet), modelling a correlated failure domain — a rack losing its
// PDU, a coolant manifold burst taking out neighbours at once. The nodes
// enter the same failure path organic Weibull failures take: the next
// Step kills their jobs, offlines them in the scheduler, logs the failure
// events and schedules repair after Config.RepairHours. It returns how
// many nodes newly failed (already-failed nodes are not double-counted).
func (dc *DataCenter) FailNodes(start, count int) int {
	if start < 0 {
		start = 0
	}
	failed := 0
	for i := start; i < start+count && i < len(dc.Nodes); i++ {
		if !dc.Nodes[i].Failed() {
			dc.Nodes[i].ForceFail()
			failed++
		}
	}
	return failed
}

// applyAnomalies re-asserts injected misbehaviour after scheduling has set
// node loads, so injections persist across steps.
func (dc *DataCenter) applyAnomalies() {
	for idx, kind := range dc.anomalies {
		n := dc.Nodes[idx]
		switch kind {
		case "thermal":
			n.SetFanSpeed(0.1)
		case "power":
			// A miner maxes compute but keeps its node cooled.
			n.SetFrequencyIndex(n.NumFrequencies() - 1)
			n.SetFanSpeed(0.8)
			n.SetLoad(hardware.Load{Utilization: 1, ComputeFrac: 1})
		}
	}
}
