package node

import (
	"encoding/json"
	"errors"
	"math"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro"
	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// cutNet dials TCP, and can cut an address off: a dial to it is refused and
// every connection already open to it is closed, so the node listening there
// is partitioned away from every node dialing through the cutNet.
type cutNet struct {
	mu    sync.Mutex
	cut   map[string]bool
	conns map[string][]net.Conn
}

func newCutNet() *cutNet {
	return &cutNet{cut: make(map[string]bool), conns: make(map[string][]net.Conn)}
}

func (cn *cutNet) dial(addr string) (net.Conn, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.cut[addr] {
		return nil, errors.New("cutnet: partitioned")
	}
	c, err := net.Dial("tcp", addr)
	if err == nil {
		cn.conns[addr] = append(cn.conns[addr], c)
	}
	return c, err
}

func (cn *cutNet) partition(addr string) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.cut[addr] = true
	for _, c := range cn.conns[addr] {
		c.Close()
	}
}

// fleetBatch is one agent batch holding every sample of every series in
// store.
func fleetBatch(t *testing.T, store *timeseries.Store) *wire.Batch {
	t.Helper()
	b := &wire.Batch{Agent: "fleet"}
	for _, sd := range store.Dump() {
		rec := wire.Record{ID: sd.ID, Kind: sd.Kind, Unit: sd.Unit}
		if err := store.Each(sd.ID, math.MinInt64, math.MaxInt64, func(sm metric.Sample) bool {
			rec.Samples = append(rec.Samples, sm)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		b.Records = append(b.Records, rec)
	}
	return b
}

// sweep is the part of an /analyze answer the cluster tests compare.
type sweep struct {
	From, To int64
	Results  map[string]struct {
		Values map[string]float64 `json:"values"`
	} `json:"results"`
	Errors       map[string]string `json:"errors"`
	PartialPeers []string          `json:"partial_peers"`
	header       string
}

func analyze(t *testing.T, n *Node, path string) sweep {
	t.Helper()
	rec := get(t, n, path)
	if rec.Code != 200 {
		t.Fatalf("GET %s: %d: %s", path, rec.Code, rec.Body.String())
	}
	var s sweep
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	s.header = rec.Header().Get("X-ODA-Partial")
	return s
}

// sameSweep reports how got differs from want in its window, the set of
// capabilities that answered or failed, or any answer's values.
func sameSweep(got, want sweep) string {
	if got.From != want.From || got.To != want.To {
		return "window"
	}
	var names []string
	for name := range want.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got.Results[name]
		if !ok || !reflect.DeepEqual(g.Values, want.Results[name].Values) {
			return name
		}
	}
	if len(got.Results) != len(want.Results) || !reflect.DeepEqual(got.Errors, want.Errors) {
		return "answering set"
	}
	return ""
}

// TestClusterSweepReadsTheFleet: /analyze on any node of a 3-node RF = 2
// cluster sweeps the whole fleet, not the node's own shard: every
// capability's values are bit-identical to a single node holding the same
// simulated fleet. With one node partitioned away the sweep still answers,
// from its replica, and names that node — and only it — as partial.
func TestClusterSweepReadsTheFleet(t *testing.T) {
	exp := repro.StandardExperiment(7, 8, 3)
	fleet := fleetBatch(t, exp.DC.Store)
	const path = "/analyze?window_hours=3"

	single := openNode(t, Config{RF: 1, ChunkSize: 8})
	single.Ingest(fleet)
	want := analyze(t, single, path)
	if len(want.Results) < 10 || len(want.PartialPeers) != 0 || want.header != "" {
		t.Fatalf("single-node sweep: %d capabilities answered, partial %v %q", len(want.Results), want.PartialPeers, want.header)
	}

	cn := newCutNet()
	ids := []string{"n1", "n2", "n3"}
	nodes := openCluster(t, ids, 2, func(_ string, c *Config) {
		c.DataDir, c.Fsync, c.Dial = t.TempDir(), "never", cn.dial
	})
	nodes["n1"].Ingest(fleet)
	for _, id := range ids {
		nodes[id].Router().Flush()
		nodes[id].Router().CheckPeers() // each peer has applied every forward
	}
	for _, id := range ids {
		nodes[id].Router().PumpReplication()
		// The pool shares one archive view across concurrent capabilities.
		nodes[id].grid.SetWorkers(2)
	}
	for _, id := range ids {
		if held := nodes[id].Store().NumSamples(); held == 0 || held == exp.DC.Store.NumSamples() {
			t.Fatalf("%s holds %d of %d samples: not a shard", id, held, exp.DC.Store.NumSamples())
		}
		got := analyze(t, nodes[id], path)
		if d := sameSweep(got, want); d != "" {
			t.Fatalf("%s: sweep differs from the single node's on %s", id, d)
		}
		if len(got.PartialPeers) != 0 || got.header != "" {
			t.Fatalf("%s: healthy sweep flagged partial: %v %q", id, got.PartialPeers, got.header)
		}
	}

	addr, _ := nodes["n3"].Router().Topology().Addr("n3")
	cn.partition(addr)
	got := analyze(t, nodes["n1"], path)
	if !reflect.DeepEqual(got.PartialPeers, []string{"n3"}) || got.header != "n3" {
		t.Fatalf("partitioned sweep: partial_peers %v, X-ODA-Partial %q; want n3", got.PartialPeers, got.header)
	}
	// n3's replica is caught up, so what it answers is what n3 would.
	if d := sameSweep(got, want); d != "" {
		t.Fatalf("partitioned sweep differs from the single node's on %s", d)
	}
}
