package main

import (
	"time"

	"repro/bench/gen"
	"repro/bench/report"
	"repro/internal/timeseries"
)

// clusterNames are the cluster layer's metrics; a single-node workload
// reports each as 0, because on it the layer does nothing.
var clusterNames = map[string]string{
	"cluster.route_ns_per_sample":      "ns",
	"cluster.forward_bytes_per_sample": "B",
	"cluster.flush_wait_ms_p50":        "ms",
	"cluster.flush_wait_ms_p99":        "ms",
	"cluster.rpc_query_us_p50":         "us",
	"cluster.scatter_us_p50":           "us",
	"cluster.repl_pump_ms":             "ms",
	"cluster.repl_lag_bytes":           "B",
	"cluster.hint_dropped":             "count",
	"cluster.partial_ratio":            "ratio",
}

// clusterProbes measures what only a cluster has, on the three in-process
// nodes the pipeline just loaded through node a.
func (l *layers) clusterProbes(p *pipelineResult, self map[string]time.Duration, keys []string, clk gen.Clock) error {
	site := p.site
	a := site.members[0].router
	samples := float64(p.samples)
	l.set("cluster.route_ns_per_sample", float64(self[spanRoute].Nanoseconds())/samples, "ns")
	l.set("cluster.forward_bytes_per_sample", float64(site.peerBytes.Load())/samples, "B")

	// Replication: one explicit pump per node brings every replica to its
	// leader's writing edge; what is left afterwards must be nothing.
	t0 := time.Now()
	for _, m := range site.members {
		m.router.PumpReplication()
	}
	l.set("cluster.repl_pump_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	var lag int64
	for _, m := range site.members {
		for _, leader := range m.router.Ring().Leaders(m.id) {
			if b := m.router.ReplicationLag(leader); b != 0 {
				lag += max(b, 1) // -1 is a replica that never bootstrapped
			}
		}
	}
	l.set("cluster.repl_lag_bytes", float64(lag), "B")
	if lag != 0 {
		l.fail("replication lag %d bytes after a pump on a quiescent cluster", lag)
	}

	// Flush wait: with the routers' own 200 ms flusher running, send rounds
	// at the workload's open-loop rate straight into node a's router and
	// time AppendBatch's return to the entry's arrival at each peer.
	for _, m := range site.members {
		m.router.Start(0, time.Hour) // flusher on; health checks and pumps stay manual
	}
	paced := max(8, l.wl.MixedTicks()/4)
	every := time.Duration(float64(time.Second) / l.wl.TickRate)
	lastT := p.cap.rounds[len(p.cap.rounds)-1].t
	returned := map[int64]time.Time{}
	ring := a.Ring()
	forwarded := 0
	var buf []timeseries.BatchEntry
	start := time.Now()
	for k := 1; k <= paced; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k-1) * every)))
		t := lastT + int64(k)*clk.StepMs
		p.cap.each(len(p.cap.templates), func(r round) {
			r.t = t
			buf = r.entries(buf)
			for i := range buf {
				if ring.Primary(buf[i].ID.Key()) != "a" {
					forwarded++
				}
			}
			_, _ = a.AppendBatch(buf)
		})
		returned[t] = time.Now()
	}
	time.Sleep(300 * time.Millisecond) // one more flush period
	// One observation per entry: a round's entries past a full forward
	// buffer leave at once, the rest wait for the flusher.
	var waits []float64
	arrived := 0
	site.seenMu.Lock()
	for _, ar := range site.arrivals {
		back, ok := returned[ar.t]
		if !ok {
			continue // a round of the closed loop
		}
		w := max(0, ms(ar.at.Sub(back)))
		for i := 0; i < ar.entries; i++ {
			waits = append(waits, w)
		}
		arrived += ar.entries
	}
	site.seenMu.Unlock()
	if want := forwarded; arrived != want {
		l.fail("%d of %d forwarded entries of the paced rounds reached their owners", arrived, want)
	}
	l.setN("cluster.flush_wait_ms_p50", report.Median(waits), "ms", len(waits))
	l.setN("cluster.flush_wait_ms_p99", report.Percentile(waits, 0.99), "ms", len(waits))

	// A query for a series node b owns, asked of a (one RPC) and of b (local).
	b := site.members[1].router
	from, to := lastT-600_000, lastT+1
	var rpc []float64
	queries := 0
	for _, key := range keys {
		if ring.Primary(key) != "b" {
			continue
		}
		t0 := time.Now()
		_, _, _, _, partial, err := a.Reduce(key, from, to, timeseries.AggMean)
		viaA := time.Since(t0)
		t0 = time.Now()
		_, _, _, _, _, errB := b.Reduce(key, from, to, timeseries.AggMean)
		local := time.Since(t0)
		queries++
		if err != nil || errB != nil || partial {
			l.fail("routed query for %s: partial=%v err=%v/%v", key, partial, err, errB)
			continue
		}
		rpc = append(rpc, us(viaA-local))
		if len(rpc) == 200 {
			break
		}
	}
	l.setN("cluster.rpc_query_us_p50", report.Median(rpc), "us", len(rpc))

	// Scatter-gather over 256 series: no HTTP door reaches it yet, so this
	// is a layer-only baseline.
	scatterKeys := keys[:min(256, len(keys))]
	var scatter []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		_, _, partialPeers, err := a.ReduceMany(scatterKeys, from, to, timeseries.AggMean)
		scatter = append(scatter, us(time.Since(t0)))
		queries++
		if err != nil || len(partialPeers) > 0 {
			l.fail("scatter over %d keys: partial=%v err=%v", len(scatterKeys), partialPeers, err)
		}
	}
	l.setN("cluster.scatter_us_p50", report.Median(scatter), "us", len(scatter))

	var dropped uint64
	for _, m := range site.members {
		dropped += m.router.DroppedHintEntries()
	}
	l.set("cluster.hint_dropped", float64(dropped), "count")
	l.set("cluster.partial_ratio", float64(a.Stats().PartialQueries)/float64(max(1, queries)), "ratio")
	return nil
}
