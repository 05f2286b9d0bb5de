// Telemetry pipeline: the collection fabric end to end, the way a real
// deployment wires it — per-node collection agents push batches over the
// binary wire protocol (TCP) to an aggregation server, which archives them
// in the TSDB; analytics then query the aggregated archive. The simulated
// nodes play the role of the hardware the agents instrument.
//
// Run with: go run ./examples/telemetrypipeline
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/collector"
	"repro/internal/simulation"
	"repro/internal/stats"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

func main() {
	// The aggregation side: a wire server feeding a TSDB. The store is the
	// server's sink: each agent connection resolves a series once, when it
	// first carries it, and appends every batch by ref.
	store := timeseries.NewStore(0)
	srv, err := wire.NewServer("127.0.0.1:0", store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("aggregation server on", srv.Addr())

	// The monitored system: a small simulated center. Its built-in agent
	// is not used; instead one agent per node pushes over the wire, as a
	// per-host monitoring daemon would.
	cfg := simulation.DefaultConfig(3)
	cfg.Nodes = 8
	cfg.Workload.MaxNodes = 4
	cfg.Workload.MeanInterarrival = 120
	dc := simulation.New(cfg)

	var agents []*collector.Agent
	var clients []*wire.Client
	for _, node := range dc.Nodes {
		client, err := wire.Dial(srv.Addr())
		if err != nil {
			log.Fatal(err)
		}
		clients = append(clients, client)
		agent := collector.NewAgent("agent-"+node.Name(), time.Second)
		agent.AddSource(node.Source())
		// The wire push rides a bounded queue so TCP latency never stalls
		// the scrape cadence; Block keeps delivery lossless, and failed
		// sends retry with backoff under a per-attempt deadline.
		agent.AddSinkQueued(&collector.WireSink{
			Client:       client,
			MaxRetries:   2,
			SendDeadline: 2 * time.Second,
		}, collector.QueueConfig{Depth: 64, Policy: collector.Block})
		agents = append(agents, agent)
	}

	// Drive 4 virtual hours: physics steps plus a 60 s collection cadence
	// on every push agent.
	fmt.Println("simulating 4 virtual hours with per-node push agents...")
	const collectEvery = 60 * 1000
	nextCollect := int64(collectEvery)
	for dc.Now() < 4*3600*1000 {
		dc.Step()
		if dc.Now() >= nextCollect {
			for _, a := range agents {
				a.Tick(dc.Now())
			}
			nextCollect += collectEvery
		}
	}
	// Drain every agent's queue before closing the connections: Close
	// returns once each pump has pushed its accepted backlog to the wire.
	for _, a := range agents {
		a.Close()
	}
	for _, c := range clients {
		c.Close()
	}
	// The server reads each hung-up connection to its end: every batch the
	// agents sent is archived by the time Close returns.
	if err := srv.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nserver ingested %d batches, %d samples (%d protocol errors)\n",
		srv.Batches(), srv.Samples(), srv.Errors())
	fmt.Printf("archive: %d series, %d samples, %.1fx compressed\n",
		store.NumSeries(), store.NumSamples(), store.CompressionRatio())

	// Analytics over the aggregated archive: fleet power summary.
	var fleet stats.Online
	for _, id := range store.Select("node_power_watts", nil) {
		vals, err := store.SeriesValues(id, 0, dc.Now()+1, 0)
		if err != nil {
			log.Fatal(err)
		}
		for _, v := range vals {
			fleet.Add(v)
		}
	}
	s := fleet.Summary()
	fmt.Printf("fleet power over the window: mean %.0f W, min %.0f, max %.0f (%d samples)\n",
		s.Mean, s.Min, s.Max, s.Count)

	// Per-node latest snapshot, exactly what odad's /snapshot serves.
	fmt.Println("\nlatest node power:")
	for _, se := range store.Snapshot("node_power_watts", nil) {
		node, _ := se.ID.Labels.Get("node")
		fmt.Printf("  %-6s %7.1f W\n", node, se.Sample.V)
	}
}
