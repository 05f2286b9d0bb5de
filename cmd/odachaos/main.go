// Command odachaos runs a deterministic fault-injection campaign against
// the collector → wire → store stack and reports the end-to-end invariant
// verdicts. The seed fully determines the fault timeline, so a failing
// campaign is replayed bit-for-bit anywhere from the one-line repro string
// it prints:
//
//	odachaos -seed 42 -duration 2m -intensity 2
//	odachaos -repro "chaos:v1:seed=42:dur=120000:nodes=12:sources=4:intensity=2"
//
// The campaign injects sensor dropout/stuck/noise, slow and erroring
// sinks, wire-link delay/drop/truncation/partition, hard store kills with
// in-place recovery, and correlated node failures in a simulated data
// center — then checks sample conservation, byte-identical crash
// recovery, planner/model bit-parity and /query front-door quota/cache
// consistency. Exit status 0 means every invariant held; 1 means a
// checker failed (the repro line is printed); 2 means the campaign could
// not run.
//
// -json emits the full campaign summary (counters, verdicts, fingerprint)
// as a JSON document for CI artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "campaign seed (determines the whole fault timeline)")
	duration := flag.Duration("duration", 30*time.Second, "campaign length in virtual time (one collection tick per second)")
	nodes := flag.Int("nodes", 12, "simulated data-center size for the correlated-failure leg")
	sources := flag.Int("sources", 4, "telemetry sources feeding the agent")
	intensity := flag.Float64("intensity", 1, "fault event density multiplier")
	repro := flag.String("repro", "", "replay a repro string (overrides the other campaign flags)")
	jsonOut := flag.Bool("json", false, "emit the campaign summary as JSON")
	dataDir := flag.String("data-dir", "", "durable store directory (default: a fresh temp dir, removed afterwards)")
	flag.Parse()

	cfg := chaos.Config{Seed: *seed, Duration: *duration, Nodes: *nodes, Sources: *sources, Intensity: *intensity}
	if *repro != "" {
		var err error
		if cfg, err = chaos.ParseRepro(*repro); err != nil {
			log.Printf("odachaos: %v", err)
			os.Exit(2)
		}
	}

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "odachaos-*")
		if err != nil {
			log.Printf("odachaos: %v", err)
			os.Exit(2)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	res, err := chaos.Run(cfg, dir)
	if err != nil {
		log.Printf("odachaos: campaign aborted: %v", err)
		log.Printf("odachaos: reproduce with: odachaos -repro %q", cfg.Repro())
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Printf("odachaos: %v", err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("campaign %s: %d ticks, %d fault events, %d readings, %d store crashes\n",
			res.Repro, res.Ticks, res.Events, res.Readings, res.Crashes)
		fmt.Printf("wire: %d sent ok, %d failed, %d redials, %d severed conns, %d truncated writes, %d refused dials\n",
			res.WireOK, res.WireFailed, res.Redials, res.Severed, res.Truncated, res.RefusedDials)
		fmt.Printf("sim: %d node failures injected, %d failure events logged\n",
			res.NodeFailuresInjected, res.SimFailureEvents)
		for _, c := range res.Checks {
			status := "ok"
			if !c.Pass {
				status = "FAIL — " + c.Detail
			}
			fmt.Printf("check %-16s %s\n", c.Name+":", status)
		}
		fmt.Printf("fingerprint: %s\n", res.Fingerprint)
	}

	if !res.Passed {
		fmt.Fprintf(os.Stderr, "odachaos: invariants violated — reproduce with: odachaos -repro %q\n", res.Repro)
		os.Exit(1)
	}
}
