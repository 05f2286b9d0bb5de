// Command trace is the benchmark's per-layer breakdown: it assembles the
// same layers odad is made of in process, from their public constructors,
// replays a workload's generated inputs through them at a quarter of the
// end-to-end run's size, and times the calls it makes into each layer —
// spans where a layer offers a place to interpose, replays of the captured
// input into one layer's public function where it does not. It touches the
// wide API on purpose and is its own package, so an internal rename can
// break this breakdown without breaking the scoreboard (bench/e2e).
//
//	bash bench/run.sh --workload all --seed 1 --trace 1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/bench/feed"
	"repro/bench/gen"
	"repro/bench/report"
	"repro/internal/collector"
	"repro/internal/timeseries"
)

// layers is one workload's traced run.
type layers struct {
	wl   gen.Workload
	seed int64
	dir  string // scratch for the durable stores

	archive *timeseries.Store // the workload's data in one bare store, for the read probes

	metrics  map[string]report.Metric
	problems []string
	checks   int
}

func (l *layers) set(name string, v float64, unit string) {
	l.metrics[name] = report.Metric{Value: v, Unit: unit}
}

func (l *layers) setN(name string, v float64, unit string, n int) {
	l.metrics[name] = report.Metric{Value: v, Unit: unit, N: n}
}

func (l *layers) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.problems = append(l.problems, msg)
	fmt.Fprintf(os.Stderr, "%s: CHECK FAILED: %s\n", l.wl.Name, msg)
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Float64("seconds", gen.NominalSeconds, "the end-to-end run length the inputs are sized from")
	flag.Int("trace", 1, "accepted for the driver's sake")
	flag.Parse()
	if err := run(*workload, *seed, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64) error {
	names, err := report.MetricNames("per_layer")
	if err != nil {
		return err
	}
	todo := gen.Workloads
	if workload != "all" {
		wl, err := gen.FindWorkload(workload)
		if err != nil {
			return err
		}
		todo = []gen.Workload{wl}
	}
	env := report.CurrentEnv()
	allCorrect := true
	for _, wl := range todo {
		l := &layers{wl: wl.Scaled(seconds), seed: seed, metrics: map[string]report.Metric{}}
		if err := l.run(); err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		row := report.Row{
			Env: env, Seed: seed, Workload: wl.Name, Trace: true, Seconds: seconds,
			Attempted: l.checks, Failed: len(l.problems), Metrics: l.metrics,
		}
		correct := len(l.problems) == 0
		allCorrect = allCorrect && correct
		if err := report.Emit(os.Stdout, row, correct, names); err != nil {
			return err
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
	return nil
}

// nsPer turns a summed duration into ns per sample.
func nsPer(d time.Duration, samples int) float64 {
	return float64(d.Nanoseconds()) / float64(max(1, samples))
}

func (l *layers) run() (err error) {
	if l.dir, err = workDir(); err != nil {
		return err
	}
	defer os.RemoveAll(l.dir)
	ticks := traceTicks(l.wl)

	// The pipeline twice: once bare, once with every boundary recorded.
	// Their ratio is what the tracing itself costs.
	bare, err := runPipeline(l.dir+"/bare", l.wl, l.seed, ticks, l.wl.Nodes, nil, false)
	if err != nil {
		return err
	}
	bare.site.close()
	p, err := runPipeline(l.dir+"/traced", l.wl, l.seed, ticks, l.wl.Nodes, newTracer(), true)
	if err != nil {
		return err
	}
	defer p.site.close()
	l.checks++
	if p.samples != bare.samples || p.cap.nsamples != p.samples {
		l.fail("traced pipeline moved %d samples, captured %d, untraced twin %d", p.samples, p.cap.nsamples, bare.samples)
	}
	self := selfTimes(p.spans)
	n := p.samples
	l.set("gen.next_ns_per_sample", nsPer(self[spanGen], n), "ns")
	l.set("simulation.step_ns_per_sample", nsPer(self[spanSim], n), "ns")
	l.set("collector.scrape_ns_per_sample", nsPer(self[spanScrape], n), "ns")
	l.set("collector.sink_ns_per_sample", nsPer(self[spanSink], n), "ns")
	l.set("trace.pipe_ns_per_sample", nsPer(self[spanConn], n), "ns")
	l.set("wire.decode_ns_per_sample", nsPer(self[spanDecode], n), "ns")
	l.set("odad.handler_ns_per_sample", nsPer(self[spanHandler], n), "ns")
	l.set("store.append_ns_per_sample", nsPer(self[spanStore], n), "ns")
	var attributed time.Duration
	for _, d := range self {
		attributed += d
	}
	// Peer-side spans run on other goroutines, beside the loop, not in it.
	attributed -= self[spanStore+".peer"]
	l.set("trace.end_to_end_ns_per_sample", nsPer(p.wall, n), "ns")
	l.set("trace.unattributed_ns_per_sample", nsPer(p.wall-attributed, n), "ns")
	l.set("trace.overhead_ratio", p.wall.Seconds()/bare.wall.Seconds(), "ratio")

	sinkErrs, rejected := p.feeder.Failures()
	l.set("collector.sink_errors", float64(sinkErrs), "count")
	l.set("collector.rejected_samples", float64(rejected), "count")
	l.set("wire.bytes_per_sample", float64(p.conn.bytes)/float64(n), "B")
	l.set("wire.dict_defs", float64(p.conn.defs), "count")
	l.set("wire.frames", float64(p.conn.frames), "count")
	l.set("wire.redials", float64(p.client.Redials()), "count")
	l.checks++
	if sinkErrs != 0 || rejected != 0 || p.client.Redials() != 0 || int(p.conn.defs) != p.feeder.NumSeries() {
		l.fail("pipeline: %d sink errors, %d rejected samples, %d redials, %d dictionary definitions for %d series",
			sinkErrs, rejected, p.client.Redials(), p.conn.defs, p.feeder.NumSeries())
	}

	if sim, ok := p.feeder.(*feed.Sim); ok {
		l.simScrape(sim)
	}
	if err := l.wireReplays(p); err != nil {
		return err
	}
	if err := l.storeReplays(p); err != nil {
		return err
	}
	// What the handler span holds beyond the layers measured apart: glue,
	// allocation, and the error of subtracting replays from spans.
	known := l.metrics["timeseries.append_ns_per_sample"].Value + l.metrics["timeseries.rollup_fold_ns_per_sample"].Value +
		l.metrics["persist.append_ns_per_sample"].Value
	l.set("odad.unattributed_ns_per_sample", nsPer(self[spanHandler]+self[spanStore], n)-known, "ns")

	keys, clk := seriesKeys(p.feeder), p.feeder.Clock()
	if err := l.readProbes(keys, clk, ticks); err != nil {
		return err
	}
	lastT := p.cap.rounds[len(p.cap.rounds)-1].t
	if err := l.odaProbes(lastT); err != nil {
		return err
	}
	if l.wl.Nodes > 1 {
		return l.clusterProbes(p, self, keys, clk)
	}
	for name, unit := range clusterNames {
		l.set(name, 0, unit)
	}
	return nil
}

// simScrape measures the scrape of the centre's sources alone: inside the
// pipeline it happens within DataCenter.RunFor, where nothing can be
// interposed, so a second agent over the same node, facility and network
// sources is ticked here with a sink that does nothing.
func (l *layers) simScrape(sim *feed.Sim) {
	ag := &collector.Agent{Name: "scrape-probe", Workers: 1}
	for _, node := range sim.DC.Nodes {
		ag.AddSource(node.Source())
	}
	ag.AddSource(sim.DC.Facility.Source())
	ag.AddSource(sim.DC.Net.Source())
	const rounds = 50
	samples := 0
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		samples += ag.Tick(sim.DC.Now())
	}
	l.set("collector.scrape_ns_per_sample", nsPer(time.Since(t0), samples), "ns")
}
