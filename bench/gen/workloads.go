package gen

import (
	"fmt"
	"math"
)

// Workload is one workload: the topology and durability odad runs with, the
// fleet that feeds it, and how the measured seconds are spent. Every
// workload runs the same phases — set-up, closed-loop ingest, open-loop
// mixed traffic, analysis sweeps, crash recovery — because the driver's
// contract wants every end-to-end metric from every workload; the spec
// decides which phase gets the time, and so which layers do the work.
//
// Counts are given for --seconds 20 (NominalSeconds) and scale linearly
// with --seconds, so
// a run is bounded by count, not by wall time: the same seed sends the
// same samples and leaves the same store on every commit.
type Workload struct {
	Name string
	Why  string

	Nodes int    // odad processes
	RF    int    // replication factor when Nodes > 1
	Fsync string // WAL policy during the measured phases

	// Fleet shape. These never shrink with --seconds.
	Agents, Sensors int
	SimNodes        int // >0: the fleet is a simulated data centre, not a synthetic one

	// PreloadTicks are ingested under -fsync interval during set-up and
	// followed by SIGINT (clean checkpoint) and a restart under Fsync.
	PreloadTicks int

	IngestTicks int     // closed-loop phase; 0: the preload is the closed loop
	TickRate    float64 // open-loop writer, ticks/s
	QueryRate   float64 // open-loop reader, queries/s
	MixedSecs   float64 // open-loop phase length at NominalSeconds
	Sweeps      int     // sequential /analyze requests
}

// ReaderMix is the seeded reader mix of every workload.
var ReaderMix = Mix{Point: 0.50, Range: 0.25, Raw: 0.25}

// NominalSeconds is the run length the table below is written for; it is
// BENCHMARK.json's run_seconds.
const NominalSeconds = 20

// AnalyzeWindowHours is the /analyze window: half the simulated day.
const AnalyzeWindowHours = 12

// Workloads is the benchmark's workload table.
var Workloads = []Workload{
	{
		Name:  "ingest_interval",
		Why:   "write path at saturation on one node, interval fsync; recovery replays a WAL with no snapshot",
		Nodes: 1, Fsync: "interval", Agents: 128, Sensors: 32,
		IngestTicks: 1320, TickRate: 20, QueryRate: 200, MixedSecs: 6, Sweeps: 1000,
	},
	{
		Name:  "mixed_durable",
		Why:   "reads beside fsync-always writes on a preloaded archive; recovery is snapshot plus a short WAL",
		Nodes: 1, Fsync: "always", Agents: 16, Sensors: 32,
		PreloadTicks: 2160,
		TickRate:     10, QueryRate: 500, MixedSecs: 18, Sweeps: 1000,
	},
	{
		Name:  "cluster_rf2",
		Why:   "three nodes, RF=2: ring split, forwarding, WAL-shipped replication and owner-routed queries",
		Nodes: 3, RF: 2, Fsync: "interval", Agents: 32, Sensors: 32,
		IngestTicks: 1920, TickRate: 20, QueryRate: 300, MixedSecs: 10, Sweeps: 1000,
	},
	{
		Name:  "analyze_grid",
		Why:   "the paper's 4x4 grid swept over a simulated centre's real series shipped through the wire",
		Nodes: 1, Fsync: "interval", SimNodes: 128,
		IngestTicks: 1440, TickRate: 10, QueryRate: 100, MixedSecs: 5, Sweeps: 14,
	},
}

// FindWorkload looks a workload up by name.
func FindWorkload(name string) (Workload, error) {
	for _, s := range Workloads {
		if s.Name == name {
			return s, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Scaled returns the workload sized for a run of the given length.
func (s Workload) Scaled(seconds float64) Workload {
	f := seconds / NominalSeconds
	n := func(v int) int {
		if v == 0 {
			return 0
		}
		return max(1, int(math.Round(float64(v)*f)))
	}
	s.PreloadTicks = n(s.PreloadTicks)
	s.IngestTicks = n(s.IngestTicks)
	s.Sweeps = n(s.Sweeps)
	s.MixedSecs *= f
	return s
}

// MixedTicks is the open-loop writer's tick count.
func (s Workload) MixedTicks() int { return max(1, int(math.Round(s.MixedSecs*s.TickRate))) }

// MixedQueries is the open-loop reader's query count.
func (s Workload) MixedQueries() int {
	return max(int(NumClasses), int(math.Round(s.MixedSecs*s.QueryRate)))
}
