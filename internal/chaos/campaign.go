package chaos

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"time"

	"repro/internal/collector"
	"repro/internal/metric"
	"repro/internal/node"
	"repro/internal/persist"
	"repro/internal/queryfront"
	"repro/internal/simulation"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
	"repro/internal/wire"
)

// Check is one invariant verdict.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Result is a campaign's outcome: the repro line, summary counters and the
// four invariant verdicts. Fingerprint covers everything the seed fully
// determines (durable store content, collection totals, the simulation
// leg); wire-path counters depend on wall-clock pump timing and are
// reported but excluded from it.
type Result struct {
	Repro    string `json:"repro"`
	Seed     int64  `json:"seed"`
	Ticks    int    `json:"ticks"`
	Events   int    `json:"events"`
	Readings uint64 `json:"readings"`
	Crashes  int    `json:"crashes"`

	Redials       uint64 `json:"redials"`
	Retries       uint64 `json:"retries"`
	WireOK        uint64 `json:"wire_ok"`
	WireFailed    uint64 `json:"wire_failed"`
	ServerBatches uint64 `json:"server_batches"`
	ServerErrors  uint64 `json:"server_errors"`
	Severed       uint64 `json:"severed_conns"`
	Truncated     uint64 `json:"truncated_writes"`
	RefusedDials  uint64 `json:"refused_dials"`

	SinkErrors     uint64 `json:"sink_errors"`
	DroppedBatches uint64 `json:"dropped_batches"`

	NodeFailuresInjected int `json:"node_failures_injected"`
	SimFailureEvents     int `json:"sim_failure_events"`

	ClusterEmitted          uint64 `json:"cluster_emitted"`
	ClusterForwardedEntries uint64 `json:"cluster_forwarded_entries"`
	ClusterHintedBatches    uint64 `json:"cluster_hinted_batches"`
	ClusterDrainedBatches   uint64 `json:"cluster_drained_batches"`
	ClusterPartialQueries   uint64 `json:"cluster_partial_queries"`

	MembershipEpoch          uint64 `json:"membership_epoch"`
	MembershipMovedKeys      int    `json:"membership_moved_keys"`
	MembershipHandoffEntries uint64 `json:"membership_handoff_entries"`

	Fingerprint string  `json:"fingerprint"`
	Checks      []Check `json:"checks"`
	Passed      bool    `json:"passed"`
}

// failures collects invariant violations for one checker.
type failures []string

func (f *failures) addf(format string, args ...any) {
	*f = append(*f, fmt.Sprintf(format, args...))
}

func (r *Result) record(name string, f failures) {
	c := Check{Name: name, Pass: len(f) == 0}
	if !c.Pass {
		c.Detail = strings.Join(f, "; ")
	}
	r.Checks = append(r.Checks, c)
	if !c.Pass {
		r.Passed = false
	}
}

// Run executes one campaign: the schedule derived from cfg is replayed
// against a collector agent feeding a durable store (synchronously), a
// faulty downstream sink and a wire client→server leg (both queued), plus
// a simulated data center absorbing correlated node failures — then the
// four end-to-end invariants are checked. dir hosts the durable store's
// WAL and snapshots. Setup errors return err; invariant violations land in
// Result.Checks with Passed=false.
func Run(cfg Config, dir string) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := Generate(cfg)
	ticks := int(cfg.Duration.Milliseconds() / 1000)
	res := &Result{Repro: cfg.Repro(), Seed: cfg.Seed, Ticks: ticks, Events: len(sched.Events), Passed: true}

	// --- Stack under test -------------------------------------------------
	popts := persist.Options{
		ChunkSize:    8,
		Fsync:        persist.FsyncAlways, // every acked op must survive Crash
		StoreOptions: []timeseries.Option{timeseries.WithRollups(4000, 16000)},
	}
	durable, err := persist.Open(dir, popts)
	if err != nil {
		return nil, fmt.Errorf("chaos: open durable store: %w", err)
	}

	agent := collector.NewAgent("chaos-agent", time.Second)
	agent.Workers = 1 // serial scrape: fault flips between ticks stay race-free
	sources := make([]*FaultySource, cfg.Sources)
	for i := range sources {
		sources[i] = NewFaultySource(i, cfg.Seed)
		agent.AddSource(sources[i])
	}

	// Sink 1 (synchronous): the durable archive. Lossless by construction;
	// the conservation checker holds it to that.
	storeSink := &collector.StoreSink{Store: durable}
	agent.AddSink(storeSink)

	// Sink 2 (queued, DropNewest): the faulty downstream consumer.
	fsink := &FaultySink{}
	agent.AddSinkQueued(fsink, collector.QueueConfig{Depth: 2, Policy: collector.DropNewest})

	// Sink 3 (queued, DropOldest): the wire leg over the fault-injected
	// in-memory transport into an in-memory node — odad's stack, no rollups.
	nf := NewNetFaults()
	wireNode, err := node.Open(node.Config{Listener: nf.Listener(), ChunkSize: 8, RF: 1})
	if err != nil {
		return nil, fmt.Errorf("chaos: open wire-leg node: %w", err)
	}
	client, err := wire.DialWith(nf.Dialer(), "chaos:mem")
	if err != nil {
		return nil, fmt.Errorf("chaos: dial wire leg: %w", err)
	}
	// The client speaks the dictionary protocol, so the campaign exercises ref
	// frames under faults: every redial renegotiates the dictionary from scratch.
	ws := &collector.WireSink{
		Client:       client,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		SendDeadline: 100 * time.Millisecond,
	}
	wsink := &countingSink{inner: ws}
	agent.AddSinkQueued(wsink, collector.QueueConfig{Depth: 4, Policy: collector.DropOldest})

	// --- Drive the campaign on virtual time -------------------------------
	var crashEvents []Event
	for _, ev := range sched.Events {
		if ev.Kind == StoreCrash {
			crashEvents = append(crashEvents, ev)
		}
	}
	var recoverFails failures
	const vstart = int64(1_000_000)
	var totalReadings uint64
	ci := 0
	prevOffset := int64(-1)
	for t := 0; t < ticks; t++ {
		offset := int64(t) * 1000
		// Instantaneous store kills crossed since the last tick: dump,
		// hard-kill, recover, verify byte-identity, continue on the
		// recovered store — exactly the swap a restarted daemon performs.
		for ci < len(crashEvents) && crashEvents[ci].At <= offset {
			if crashEvents[ci].At > prevOffset {
				want := durable.Store().Dump()
				durable.Crash()
				re, err := persist.Open(dir, popts)
				if err != nil {
					return nil, fmt.Errorf("chaos: recovery at t=%dms failed: %w", offset, err)
				}
				if !reflect.DeepEqual(re.Store().Dump(), want) {
					recoverFails.addf("t=%dms: recovered store != crash-instant dump", offset)
				}
				if st := re.Stats(); st.TruncatedTails != 0 {
					recoverFails.addf("t=%dms: %d torn WAL tails under FsyncAlways", offset, st.TruncatedTails)
				}
				durable = re
				storeSink.Store = re
				res.Crashes++
			}
			ci++
		}
		applyWindows(offset, sched, sources, fsink, nf)
		totalReadings += uint64(agent.Tick(vstart + offset))
		prevOffset = offset
	}
	res.Readings = totalReadings

	// Drain in dependency order: agent queues first (pumps finish their
	// sends), then the client (server reads EOF), then the node (its wire
	// server waits for in-flight conns, so every fully delivered frame is
	// counted, and closing its listener closes the transport).
	agent.Close()
	_ = client.Close()
	_ = wireNode.Close()

	srv := wireNode.Wire()
	res.Redials = client.Redials()
	res.Retries = ws.Retries()
	res.WireOK, res.WireFailed, _ = wsink.counts()
	res.ServerBatches = srv.Batches()
	res.ServerErrors = srv.Errors()
	res.Severed, res.Truncated, res.RefusedDials = nf.Stats()
	agStats := agent.Stats()
	res.SinkErrors = agStats.SinkErrors
	res.DroppedBatches = agStats.DroppedBatches

	// --- Simulation leg: correlated node failures -------------------------
	injected, simFP := runSimLeg(cfg, sched, res)

	// --- Cluster leg: kill-one-peer against a 3-node cluster --------------
	clusterFails, clusterFP := runClusterLeg(cfg, dir, res)

	// --- Membership leg: join one node, kill another, mid-campaign --------
	membershipFails, membershipFP := runMembershipLeg(cfg, dir, res)

	// --- Invariant checkers -----------------------------------------------
	res.record("conservation", checkConservation(agent, durable, wireNode, wsink, totalReadings, ticks, injected, res.SimFailureEvents))
	res.record("recovery", recoverFails)
	res.record("planner-parity", checkPlannerParity(durable.Store(), vstart, vstart+int64(ticks)*1000))
	res.record("front-door", checkFrontDoor(durable.Store()))
	res.record("cluster", clusterFails)
	res.record("membership", membershipFails)

	// --- Fingerprint: the seed-determined portion of the campaign ---------
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|ticks=%d|readings=%d|crashes=%d|sim=%s|cluster=%s|membership=%s", durable.Store().Dump(), ticks, totalReadings, res.Crashes, simFP, clusterFP, membershipFP)
	res.Fingerprint = fmt.Sprintf("%016x", h.Sum64())

	if err := durable.Close(); err != nil {
		return nil, fmt.Errorf("chaos: close durable store: %w", err)
	}
	return res, nil
}

// applyWindows computes the set of fault windows active at offset and
// pushes that state to every fault point. Recomputing from scratch each
// tick keeps activation/deactivation trivially deterministic: state is a
// pure function of (schedule, offset).
func applyWindows(offset int64, sched Schedule, sources []*FaultySource, fsink *FaultySink, nf *NetFaults) {
	srcMode := make([]FaultKind, len(sources))
	srcParam := make([]float64, len(sources))
	var sinkDelay, netDelay time.Duration
	var sinkFail, drop, trunc, part bool
	for _, ev := range sched.Events {
		if ev.Dur <= 0 || offset < ev.At || offset >= ev.At+ev.Dur {
			continue
		}
		switch ev.Kind {
		case SensorDropout, SensorStuck, SensorNoisy:
			if ev.Target < len(sources) {
				srcMode[ev.Target] = ev.Kind
				srcParam[ev.Target] = ev.Param
			}
		case SinkSlow:
			sinkDelay = time.Duration(ev.Param) * time.Millisecond
		case SinkError:
			sinkFail = true
		case NetDelay:
			netDelay = time.Duration(ev.Param) * time.Millisecond
		case NetDrop:
			drop = true
		case NetTruncate:
			trunc = true
		case NetPartition:
			part = true
		}
	}
	for i, src := range sources {
		src.SetMode(srcMode[i], srcParam[i])
	}
	fsink.Set(sinkDelay, sinkFail)
	nf.SetDelay(netDelay)
	nf.SetDrop(drop)
	nf.SetTruncate(trunc)
	nf.SetPartition(part)
}

// runSimLeg replays the schedule's correlated node failures against a
// seeded simulated data center (campaign milliseconds map to sim seconds
// 10:1) and lets repairs land. Returns the injected-failure count and the
// leg's fingerprint.
func runSimLeg(cfg Config, sched Schedule, res *Result) (injected int, fp string) {
	simCfg := simulation.DefaultConfig(cfg.Seed)
	simCfg.Nodes = cfg.Nodes
	simCfg.RepairHours = 0.05
	dc := simulation.New(simCfg)
	defer dc.Close()

	simNow := int64(0)
	for _, ev := range sched.Events {
		if ev.Kind != NodeFailure {
			continue
		}
		if target := ev.At / 100; target > simNow {
			dc.RunFor(float64(target - simNow))
			simNow = target
		}
		injected += dc.FailNodes(ev.Target, int(ev.Param))
	}
	end := cfg.Duration.Milliseconds()/100 + 400 // slack for repairs
	if end > simNow {
		dc.RunFor(float64(end - simNow))
	}
	res.NodeFailuresInjected = injected
	res.SimFailureEvents = dc.FailureEvents

	h := fnv.New64a()
	fmt.Fprintf(h, "samples=%d|submitted=%d|killed=%d|failures=%d|%+v",
		dc.Store.NumSamples(), dc.SubmittedJobs, dc.KilledJobs, dc.FailureEvents, dc.Store.Dump())
	return injected, fmt.Sprintf("%016x", h.Sum64())
}

// checkConservation asserts no sample is silently lost anywhere: every
// batch Tick offered a sink is delivered, queued or accounted as dropped
// (Offered == Consumed + Queued + Dropped per sink); the synchronous
// archive sink holds every reading the sources emitted; and the wire leg's
// ledger closes exactly — successful sends equal server-decoded batches,
// and the node's store holds every received sample minus the ones it
// counted as rejected. The simulation leg's injected failures must all
// surface in its event log.
func checkConservation(agent *collector.Agent, durable *persist.DurableStore, wireNode *node.Node, wsink *countingSink, totalReadings uint64, ticks, injected, simFailures int) failures {
	var f failures
	stats := agent.SinkStats()
	if len(stats) != 3 {
		f.addf("expected 3 sinks, got %d", len(stats))
		return f
	}
	for i, st := range stats {
		if st.Offered != uint64(ticks) {
			f.addf("sink %d (%s): offered %d batches, want %d", i, st.Sink, st.Offered, ticks)
		}
		if st.Queued != 0 {
			f.addf("sink %d (%s): %d batches still queued after Close", i, st.Sink, st.Queued)
		}
		if st.Offered != st.Consumed+uint64(st.Queued)+st.Dropped {
			f.addf("sink %d (%s): offered %d != consumed %d + queued %d + dropped %d",
				i, st.Sink, st.Offered, st.Consumed, st.Queued, st.Dropped)
		}
	}
	// The synchronous archive sink is lossless by contract.
	if st := stats[0]; st.Dropped != 0 || st.Consumed != uint64(ticks) {
		f.addf("sync store sink: consumed %d dropped %d, want %d/0", st.Consumed, st.Dropped, ticks)
	}
	ag := agent.Stats()
	if ag.RejectedSamples != 0 {
		f.addf("agent rejected %d samples (duplicate timestamps should be impossible)", ag.RejectedSamples)
	}
	if got := durable.Store().NumSamples(); uint64(got) != totalReadings {
		f.addf("durable store holds %d samples, sources emitted %d", got, totalReadings)
	}
	// Wire-leg ledger: a Send error never delivers a complete frame (the
	// in-memory pipe is synchronous), so successes and decoded batches
	// must agree exactly, as must sample counts end to end.
	srv, serverStore := wireNode.Wire(), wireNode.Store()
	ok, _, okSamples := wsink.counts()
	if ok != srv.Batches() {
		f.addf("wire: %d successful sends but server decoded %d batches", ok, srv.Batches())
	}
	if okSamples != srv.Samples() {
		f.addf("wire: %d samples sent in successful batches but server received %d", okSamples, srv.Samples())
	}
	if got := uint64(serverStore.NumSamples()) + wireNode.Rejected(); got != srv.Samples() {
		f.addf("wire: server store %d + rejected %d != received %d", serverStore.NumSamples(), wireNode.Rejected(), srv.Samples())
	}
	// Correlated failures are observed failures: the simulation logs every
	// injected one.
	if injected == 0 {
		f.addf("schedule injected no node failures (coverage guarantee broken)")
	}
	if simFailures < injected {
		f.addf("sim logged %d failure events for %d injected failures", simFailures, injected)
	}
	return f
}

// checkPlannerParity asserts the rollup-tier query planner is bit-exact over
// the fault-shaped archive: ReducePlanned on two windows and AggregatePlanned
// at step 4000, for every function, equal the reference model
// (internal/tsmodel) fed the archive's samples. Answers compare in print,
// which tells every two float64s apart but NaN payloads; the one error
// either side gives, p95 of an empty window, is the same stats error.
func checkPlannerParity(store *timeseries.Store, from, to int64) failures {
	var f failures
	m := tsmodel.New(false)
	windows := [][2]int64{{from, to}, {from + 500, from + (to-from)/2 + 250}}
	for _, id := range store.Select("", nil) {
		key := id.Key()
		m.Register(id)
		// A corrupt chunk stops Each early; the comparisons below report it.
		_ = store.Each(id, math.MinInt64, math.MaxInt64, func(sm metric.Sample) bool {
			m.Append(id, sm.T, sm.V)
			return true
		})
		for _, fn := range allFns {
			for _, w := range windows {
				got, want := fmt.Sprint(store.ReducePlanned(id, w[0], w[1], fn)), fmt.Sprint(m.Reduce(key, w[0], w[1], string(fn)))
				if got != want {
					f.addf("%s %s [%d,%d): planned %s vs model %s", key, fn, w[0], w[1], got, want)
				}
			}
			got, want := fmt.Sprint(store.AggregatePlanned(id, from, to, 4000, fn)), fmt.Sprint(m.Aggregate(key, from, to, 4000, string(fn)))
			if got != want {
				f.addf("%s %s aggregate step 4000: planned %s vs model %s", key, fn, got, want)
			}
		}
	}
	return f
}

// allFns is every aggregation the store answers.
var allFns = []timeseries.AggFunc{
	timeseries.AggMean, timeseries.AggSum, timeseries.AggMin, timeseries.AggMax,
	timeseries.AggCount, timeseries.AggRate, timeseries.AggStd, timeseries.AggP95,
}

// checkFrontDoor drives the real /query front door (result cache + quotas)
// over the campaign's archive on a virtual clock and asserts the ledger
// closes exactly: admissions match the token arithmetic, hits and misses
// match TTL arithmetic, every admitted request is either a hit or a miss,
// and re-computed responses are byte-identical to their first computation.
func checkFrontDoor(store *timeseries.Store) failures {
	var f failures
	ids := store.Select("", nil)
	if len(ids) < 2 {
		f.addf("archive has %d series, front-door check needs 2", len(ids))
		return f
	}
	vclock := time.UnixMilli(1_000_000)
	qf := queryfront.New(queryfront.ForStore(store), 64, 5*time.Second, 1, 3,
		queryfront.WithClock(func() time.Time { return vclock }))

	get := func(key, tenant string) (code int, cache, body string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/query?series="+url.QueryEscape(key)+"&from=1000000&to=1030000&fn=sum", nil)
		req.Header.Set("X-ODA-Tenant", tenant)
		qf.HandleQuery(rec, req)
		return rec.Code, rec.Header().Get("X-ODA-Cache"), rec.Body.String()
	}
	type step struct {
		series, tenant string
		advance        time.Duration
		wantCode       int
		wantCache      string // "" = don't care (429 has no cache header)
	}
	alpha, beta := ids[0].Key(), ids[1].Key()
	// rate 1 token/s, burst 3, TTL 5s, clock frozen unless advanced.
	steps := []step{
		{alpha, "alpha", 0, 200, "miss"},
		{alpha, "alpha", 0, 200, "hit"},
		{alpha, "alpha", 0, 200, "hit"},
		{alpha, "alpha", 0, 429, ""},
		{alpha, "alpha", 0, 429, ""},
		{beta, "beta", 0, 200, "miss"},
		{beta, "beta", 0, 200, "hit"},
		{beta, "beta", 0, 200, "hit"},
		{beta, "beta", 0, 429, ""},
		{alpha, "alpha", time.Second, 200, "hit"}, // one token refilled, entry still fresh
		{alpha, "alpha", 0, 429, ""},
		{alpha, "alpha", 10 * time.Second, 200, "miss"}, // TTL passed: recompute
	}
	var firstBody, lastMissBody string
	wantAllowed, wantRejected, wantHits, wantMisses := uint64(0), uint64(0), uint64(0), uint64(0)
	for i, s := range steps {
		vclock = vclock.Add(s.advance)
		code, cache, body := get(s.series, s.tenant)
		if code != s.wantCode || (s.wantCache != "" && cache != s.wantCache) {
			f.addf("step %d (%s@%s): got %d/%q, want %d/%q", i, s.tenant, s.series, code, cache, s.wantCode, s.wantCache)
		}
		switch {
		case code == 200:
			wantAllowed++
			if cache == "hit" {
				wantHits++
			} else {
				wantMisses++
			}
		case code == 429:
			wantRejected++
		}
		if i == 0 {
			firstBody = body
		}
		if i == len(steps)-1 {
			lastMissBody = body
		}
	}
	if firstBody != lastMissBody {
		f.addf("recomputed response after TTL expiry is not byte-identical to the original")
	}
	qs := qf.QuotaStats()
	if qs.Allowed != wantAllowed || qs.Rejected != wantRejected || qs.Tenants != 2 {
		f.addf("quota ledger: allowed %d rejected %d tenants %d, want %d/%d/2", qs.Allowed, qs.Rejected, qs.Tenants, wantAllowed, wantRejected)
	}
	cs := qf.CacheStats()
	if cs.Hits != wantHits || cs.Misses != wantMisses {
		f.addf("cache ledger: hits %d misses %d, want %d/%d", cs.Hits, cs.Misses, wantHits, wantMisses)
	}
	if cs.Hits+cs.Misses != qs.Allowed {
		f.addf("every admitted request must be a hit or a miss: %d+%d != %d", cs.Hits, cs.Misses, qs.Allowed)
	}
	return f
}
