package main

import (
	"fmt"
	"os"
	"time"

	"repro/bench/feed"
	"repro/bench/gen"
	"repro/bench/report"
)

// Set-up and crash recovery are repeated and reported as medians: at least
// minReps times, and up to maxReps while the repetitions together have taken
// less than repBudget, so an operation of a few hundred milliseconds — whose
// single timings spread 0.3–0.4 of their median on this shared VM — is
// repeated more often than one of seconds, at about the same cost. The last
// set-up's processes carry the measured phases.
const (
	minReps   = 3
	maxReps   = 9
	repBudget = 2 * time.Second
)

func again(done int, spent time.Duration) bool {
	return done < minReps || (done < maxReps && spent < repBudget)
}

// run is the state of one workload run.
type run struct {
	h     *harness
	sp    gen.Workload
	seed  int64
	nodes []*node
	feed  feed.Feeder
	in    *ingest

	ops         map[string][2]int // kind -> {attempted, failed}
	metrics     map[string]report.Metric
	diagnostics map[string]report.Metric
	problems    []string // correctness failures
}

func (r *run) op(kind string, attempted, failed int) {
	c := r.ops[kind]
	r.ops[kind] = [2]int{c[0] + attempted, c[1] + failed}
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = report.Metric{Value: v, Unit: unit}
}

func (r *run) diag(name string, v float64, unit string) {
	r.diagnostics[name] = report.Metric{Value: v, Unit: unit}
}

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "%s: CHECK FAILED: %s\n", r.sp.Name, msg)
}

// connect opens the ingest connection to node a and points the fleet at it.
func (r *run) connect() error {
	in, err := dialIngest(r.nodes[0].wire)
	if err != nil {
		return err
	}
	r.in = in
	r.feed.Attach(in.client)
	return nil
}

// setUp is everything a user waits for before the first measured sample:
// build odad from source, start it, wait for readiness and — where the
// workload has one — preload the archive, shut down cleanly (which
// checkpoints) and restart under the measured fsync policy.
func (r *run) setUp() error {
	if err := r.h.build(); err != nil {
		return err
	}
	r.feed = feed.New(r.seed, r.sp, nil)
	first := r.sp.Fsync
	if r.sp.PreloadTicks > 0 {
		first = "interval"
	}
	for _, n := range r.nodes {
		if err := r.h.start(n, first); err != nil {
			return err
		}
	}
	if err := r.connect(); err != nil {
		return err
	}
	if r.sp.PreloadTicks == 0 {
		return nil
	}
	// The preload is a closed loop at saturation like any other, so it is
	// measured like one; a workload with no closed loop of its own
	// (IngestTicks 0) reports these figures.
	if err := r.saturate(r.sp.PreloadTicks); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	_ = r.in.client.Close()
	for _, n := range r.nodes {
		if err := n.interrupt(); err != nil {
			return err
		}
	}
	for _, n := range r.nodes {
		if err := r.h.start(n, r.sp.Fsync); err != nil {
			return err
		}
	}
	return r.connect()
}

// tearDown undoes setUp so it can run again from nothing.
func (r *run) tearDown() error {
	_ = r.in.client.Close()
	for _, n := range r.nodes {
		n.kill()
		if err := n.wipe(); err != nil {
			return err
		}
	}
	return nil
}

// sumStats adds up a numeric /stats field over the nodes, and the replica
// stores' sample counts.
func (r *run) sumStats() (samples, series, replicaSamples int, err error) {
	for _, n := range r.nodes {
		st, err := n.stats()
		if err != nil {
			return 0, 0, 0, err
		}
		samples += int(num(st["samples"]))
		series += int(num(st["series"]))
		if cl, ok := st["cluster"].(map[string]any); ok {
			reps, _ := cl["replicas"].([]any)
			for _, rep := range reps {
				if m, ok := rep.(map[string]any); ok {
					replicaSamples += int(num(m["samples"]))
				}
			}
		}
	}
	return
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// quiesce waits until every sample sent has been applied by its owner and,
// on a cluster, shipped to its replica: the forward buffers flush on a
// 200 ms timer and replication pulls on a 1 s timer, so a Pong from node a
// does not cover them.
func (r *run) quiesce() error {
	const quiesceTimeout = 60 * time.Second
	want := r.feed.Sent()
	wantReplicas := want * (max(r.sp.RF, 1) - 1)
	deadline := time.Now().Add(quiesceTimeout)
	for {
		samples, _, replicas, err := r.sumStats()
		if err == nil && samples == want && replicas == wantReplicas {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not quiescent after %v: %d/%d samples, %d/%d replica samples (%v)", quiesceTimeout, samples, want, replicas, wantReplicas, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (r *run) cpuSeconds() (float64, error) {
	var total float64
	for _, n := range r.nodes {
		c, err := n.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// saturate is the closed loop at saturation: n ticks as fast as odad takes
// them. The first eighth is warm-up and is not timed: a freshly started
// odad grows its heap, its WAL and its series maps through the first second
// or two, and how long that takes varies far more than anything after it.
func (r *run) saturate(n int) error {
	batches0 := r.feed.Batches()
	warm := n / 8
	if _, err := closedLoop(r.feed, r.in, warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := r.quiesce(); err != nil {
		return err
	}
	sent0, bytes0 := r.feed.Sent(), r.in.written.Load()
	cpu0, err := r.cpuSeconds()
	if err != nil {
		return err
	}
	u0, s0 := selfCPU()
	loop, err := closedLoop(r.feed, r.in, n-warm)
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	u1, s1 := selfCPU()
	if err := r.quiesce(); err != nil {
		return err
	}
	cpu1, err := r.cpuSeconds()
	if err != nil {
		return err
	}
	samples := float64(r.feed.Sent() - sent0)
	r.op("batches", r.feed.Batches()-batches0, 0)
	r.set("ingest_samples_per_s", samples/loop.wall.Seconds(), "samples/s")
	r.set("odad_cpu_us_per_sample", (cpu1-cpu0)*1e6/samples, "us")
	r.set("wire_bytes_per_sample", float64(r.in.written.Load()-bytes0)/samples, "B")
	r.diag("ingest_samples", samples, "count")
	r.diag("ingest_interval_samples_per_s_p50", report.Median(loop.rates), "samples/s")
	r.diag("gen.busy_ratio", 1-loop.waiting.Seconds()/loop.wall.Seconds(), "ratio")
	r.diag("gen.cpu_us_per_sample", (u1+s1-u0-s0)*1e6/samples, "us")
	return nil
}

// mixedPhase is the open loop: writes beside reads on the same series.
func (r *run) mixedPhase() error {
	sp := r.sp
	probeNode, queryNode := r.nodes[0], r.nodes[0]
	if len(r.nodes) > 1 {
		// Write into a, look for it on b, read from c: every path crosses
		// the router.
		probeNode, queryNode = r.nodes[1], r.nodes[2]
	}
	probeDoor, queryDoor := newHTTPDoor(probeNode.http), newHTTPDoor(queryNode.http)
	defer probeDoor.close()
	defer queryDoor.close()
	probes := gen.ProbeSeries(r.seed, sp.MixedTicks(), r.feed.NumSeries())
	k := 0
	batches0 := r.feed.Batches()
	ol := openLoop{
		ticks:     sp.MixedTicks(),
		tickEvery: time.Duration(float64(time.Second) / sp.TickRate),
		tick: func() (int64, string, error) {
			t := r.feed.Tick()
			key := r.feed.Key(probes[k])
			k++
			// A barrier per tick keeps the writer at most one tick ahead of
			// odad. Without it the socket buffers hide a slow disk: under
			// -fsync always on a host whose fsync takes milliseconds the
			// writer finished on schedule with a minute of batches still
			// unapplied, and every probe and the quiesce after it timed out.
			// With it a slow disk makes the writer late, which is measured.
			return t, key, r.in.barrier()
		},
		probeDoor:  probeDoor,
		queries:    gen.NewQueries(r.seed, r.feed.Clock(), sp.MixedQueries(), r.feed.NumSeries(), r.feed.Ticks(), gen.ReaderMix),
		queryEvery: time.Duration(float64(time.Second) / sp.QueryRate),
		queryKey:   r.feed.Key,
		queryDoor:  queryDoor,
	}
	res := ol.run()
	r.op("batches", r.feed.Batches()-batches0, res.tickFails)
	r.op("probes", res.probes, res.probeFails)
	r.op("queries", len(ol.queries), res.queryFails)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed operation: %v\n", sp.Name, res.firstErr)
	}
	lat := func(name string, obs []report.Timed) {
		l := report.Summarise(obs)
		r.metrics[name+"_p50"] = report.Metric{Value: l.P50, Unit: "ms", N: l.N}
		r.metrics[name+"_p99"] = report.Metric{Value: l.P99, Unit: "ms", N: l.N}
	}
	lat("ingest_visible_ms", res.visible)
	for c := gen.Class(0); c < gen.NumClasses; c++ {
		lat("query_"+c.String()+"_ms", res.query[c])
	}
	r.diag("gen.writer_late_ms_p99", report.Percentile(res.writerLate, 0.99), "ms")
	r.diag("gen.reader_late_ms_p99", report.Percentile(res.readerLate, 0.99), "ms")
	r.diag("gen.writer_busy_ratio", res.writerBusy.Seconds()/res.wall.Seconds(), "ratio")
	r.diag("gen.reader_busy_ratio", res.readerBusy.Seconds()/res.wall.Seconds(), "ratio")
	return nil
}

// recoveryPhase crashes every node with SIGKILL, restarts it, and times
// SIGKILL to the first 200 from every node's /query. Nothing is written
// between repetitions, so each recovers the same files.
func (r *run) recoveryPhase(key string, from, to int64) error {
	_ = r.in.client.Close()
	var times []float64
	phase := time.Now()
	for again(len(times), time.Since(phase)) {
		start := time.Now()
		for _, n := range r.nodes {
			n.kill()
		}
		for _, n := range r.nodes {
			if err := r.h.start(n, r.sp.Fsync); err != nil {
				return err
			}
		}
		for _, n := range r.nodes {
			door := newHTTPDoor(n.http)
			deadline := time.Now().Add(60 * time.Second)
			for {
				_, err := door.get(gen.QueryPath(key, from, to, 0, "count"))
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					door.close()
					return fmt.Errorf("node %s: no 200 from /query 60 s after restart: %v", n.id, err)
				}
				time.Sleep(time.Millisecond)
			}
			door.close()
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.metrics["recovery_s"] = report.Metric{Value: report.Median(times), Unit: "s", N: len(times)}
	return nil
}

// execute runs every phase and fills the metrics.
func (r *run) execute() error {
	var err error
	if r.nodes, err = r.h.newNodes(r.sp.Nodes, r.sp.RF); err != nil {
		return err
	}
	var setups []float64
	phase := time.Now()
	for again(len(setups), time.Since(phase)) {
		if len(setups) > 0 {
			if err := r.tearDown(); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := r.setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.diag("setup_first_s", setups[0], "s")
	r.metrics["setup_s"] = report.Metric{Value: report.Median(setups), Unit: "s", N: len(setups)}

	if r.sp.IngestTicks > 0 {
		if err := r.saturate(r.sp.IngestTicks); err != nil {
			return err
		}
	}
	if err := r.mixedPhase(); err != nil {
		return err
	}
	if err := r.quiesce(); err != nil {
		return err
	}
	if err := r.analyzePhase(); err != nil {
		return err
	}
	checks := gen.NewChecks(r.seed, r.feed.NumSeries(), r.feed.Ticks())
	r.verify("after load", checks)

	var disk int64
	var rss float64
	for _, n := range r.nodes {
		b, err := n.diskBytes()
		if err != nil {
			return err
		}
		disk += b
		m, err := n.rssPeakMB()
		if err != nil {
			return err
		}
		rss += m
	}
	r.set("disk_bytes_per_sample", float64(disk)/float64(r.feed.Sent()), "B")
	r.set("odad_rss_peak_mb", rss, "MB")
	r.diag("disk_bytes", float64(disk), "B")
	r.diag("samples_acked", float64(r.feed.Sent()), "count")

	c := checks[0]
	clk := r.feed.Clock()
	if err := r.recoveryPhase(r.feed.Key(c.Series), clk.TimeOf(c.FromTick), clk.TimeOf(c.ToTick)); err != nil {
		return err
	}
	r.verify("after SIGKILL and restart", checks)

	sinkErrs, rejected := r.feed.Failures()
	r.op("batches", 0, sinkErrs)
	r.diag("collector.sink_errors", float64(sinkErrs), "count")
	r.diag("collector.rejected_samples", float64(rejected), "count")
	return nil
}
