// Package network models the system interconnect of the virtual data
// center: a two-level fat-tree (edge switches with core uplinks), per-link
// traffic counters, and inter-job contention. Jobs whose traffic shares an
// oversubscribed uplink experience a slowdown — the phenomenon the surveyed
// diagnostic ODA tools (Overtime, link-level analysis) detect.
package network

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/collector"
	"repro/internal/metric"
)

// Config describes the fabric.
type Config struct {
	// Nodes is the total compute-node count.
	Nodes int
	// EdgeRadix is how many nodes attach to one edge switch.
	EdgeRadix int
	// UplinkCapacity is each edge switch's aggregate uplink bandwidth to
	// the core, in bytes/second.
	UplinkCapacity float64
	// LocalCapacity is intra-edge-switch bandwidth (rarely the bottleneck).
	LocalCapacity float64
}

// DefaultConfig returns a 4:1 oversubscribed fat-tree for n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:          n,
		EdgeRadix:      16,
		UplinkCapacity: 40e9, // 4 x 100GbE uplinks per edge, ~40 GB/s
		LocalCapacity:  160e9,
	}
}

// flow is one job's communication footprint.
type flow struct {
	nodes []int
	// demand is bytes/second of traffic each node sends.
	demandPerNode float64
}

// Network tracks flows and computes contention.
type Network struct {
	cfg Config

	mu    sync.Mutex
	flows map[string]*flow

	uplinkLoad  []float64 // bytes/s per edge switch uplink group
	localLoad   []float64
	uplinkBytes []float64 // accumulated counters
	slowdowns   map[string]float64
}

// New builds a fabric for the given config.
func New(cfg Config) *Network {
	if cfg.EdgeRadix <= 0 {
		cfg.EdgeRadix = 16
	}
	edges := (cfg.Nodes + cfg.EdgeRadix - 1) / cfg.EdgeRadix
	if edges < 1 {
		edges = 1
	}
	return &Network{
		cfg:         cfg,
		flows:       make(map[string]*flow),
		uplinkLoad:  make([]float64, edges),
		localLoad:   make([]float64, edges),
		uplinkBytes: make([]float64, edges),
		slowdowns:   make(map[string]float64),
	}
}

// NumEdges returns the number of edge switches.
func (n *Network) NumEdges() int { return len(n.uplinkLoad) }

// EdgeOf returns which edge switch a node attaches to.
func (n *Network) EdgeOf(node int) int { return node / n.cfg.EdgeRadix }

// Assign registers a job's communication demand across its allocated nodes.
// Re-assigning an existing job replaces its footprint.
func (n *Network) Assign(jobID string, nodes []int, demandPerNode float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flows[jobID] = &flow{nodes: append([]int(nil), nodes...), demandPerNode: demandPerNode}
}

// Remove deletes a job's flows.
func (n *Network) Remove(jobID string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.flows, jobID)
	delete(n.slowdowns, jobID)
}

// Step recomputes link loads for dt seconds and returns the per-job
// slowdown factor (>= 1). A job's cross-edge traffic loads the uplinks of
// every edge it spans; when an uplink is oversubscribed, all jobs using it
// slow proportionally.
func (n *Network) Step(dt float64) map[string]float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.uplinkLoad {
		n.uplinkLoad[i] = 0
		n.localLoad[i] = 0
	}
	// Per-job per-edge traffic contribution.
	type contrib struct {
		jobID string
		edge  int
		load  float64
	}
	var contribs []contrib
	// Flows load the uplinks in job-ID order, not map order: float addition
	// does not associate, so a map-ordered sum moved the last bit of an
	// edge's load from run to run under the same seed.
	ids := make([]string, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fl := n.flows[id]
		perEdge := make(map[int]int)
		for _, node := range fl.nodes {
			perEdge[node/n.cfg.EdgeRadix]++
		}
		total := len(fl.nodes)
		for edge, cnt := range perEdge {
			// Traffic from this job's nodes on this edge toward nodes
			// elsewhere crosses the uplink; intra-edge traffic stays local.
			remoteFrac := 0.0
			if total > 1 {
				remoteFrac = float64(total-cnt) / float64(total-1)
				if remoteFrac > 1 {
					remoteFrac = 1
				}
			}
			cross := float64(cnt) * fl.demandPerNode * remoteFrac
			local := float64(cnt) * fl.demandPerNode * (1 - remoteFrac)
			n.uplinkLoad[edge] += cross
			n.localLoad[edge] += local
			if cross > 0 {
				contribs = append(contribs, contrib{jobID: id, edge: edge, load: cross})
			}
		}
	}
	for i, load := range n.uplinkLoad {
		n.uplinkBytes[i] += math.Min(load, n.cfg.UplinkCapacity) * dt
	}
	// Slowdown: max oversubscription across edges the job touches.
	for id := range n.flows {
		n.slowdowns[id] = 1
	}
	for _, c := range contribs {
		util := n.uplinkLoad[c.edge] / n.cfg.UplinkCapacity
		if util > 1 && util > n.slowdowns[c.jobID] {
			n.slowdowns[c.jobID] = util
		}
	}
	out := make(map[string]float64, len(n.slowdowns))
	for id, s := range n.slowdowns {
		out[id] = s
	}
	return out
}

// UplinkUtilization returns each edge's uplink utilization in [0, inf).
func (n *Network) UplinkUtilization() []float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]float64, len(n.uplinkLoad))
	for i, load := range n.uplinkLoad {
		out[i] = load / n.cfg.UplinkCapacity
	}
	return out
}

// Slowdown returns the last computed slowdown for a job (1 if unknown).
func (n *Network) Slowdown(jobID string) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.slowdowns[jobID]; ok {
		return s
	}
	return 1
}

// ContendingJobs returns the IDs of jobs currently crossing any
// oversubscribed uplink, sorted — the ground truth the network-contention
// diagnostics are scored against.
func (n *Network) ContendingJobs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for id, s := range n.slowdowns {
		if s > 1 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Source exposes per-edge link telemetry.
func (n *Network) Source() collector.Source {
	return collector.SourceFunc{
		SourceName: "network",
		Fn: func(now int64) []collector.Reading {
			n.mu.Lock()
			defer n.mu.Unlock()
			out := make([]collector.Reading, 0, len(n.uplinkLoad)*2)
			for i := range n.uplinkLoad {
				labels := metric.NewLabels("edge", fmt.Sprintf("e%02d", i))
				out = append(out,
					collector.Reading{
						ID:    metric.ID{Name: "net_uplink_utilization", Labels: labels},
						Kind:  metric.Gauge,
						Unit:  metric.UnitPercent,
						Value: n.uplinkLoad[i] / n.cfg.UplinkCapacity * 100,
					},
					collector.Reading{
						ID:    metric.ID{Name: "net_uplink_bytes_total", Labels: labels},
						Kind:  metric.Counter,
						Unit:  metric.UnitBytes,
						Value: n.uplinkBytes[i],
					},
				)
			}
			return out
		},
	}
}
