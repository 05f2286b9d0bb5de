package node

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/wire"
)

// listen binds a loopback TCP listener.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// openNode opens c, on a loopback ingest listener unless c names one, and
// closes the node when the test ends.
func openNode(t *testing.T, c Config) *Node {
	t.Helper()
	if c.Listener == nil {
		c.Listener = listen(t)
	}
	n, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// openCluster opens one node per id as a static loopback cluster with
// replication factor rf; tweak, when set, adjusts each node's config.
func openCluster(t *testing.T, ids []string, rf int, tweak func(id string, c *Config)) map[string]*Node {
	t.Helper()
	lns := make(map[string]net.Listener, len(ids))
	var peers []string
	for _, id := range ids {
		lns[id] = listen(t)
		peers = append(peers, id+"="+lns[id].Addr().String())
	}
	nodes := make(map[string]*Node, len(ids))
	for _, id := range ids {
		c := Config{ChunkSize: 8, RF: rf, NodeID: id, Peers: strings.Join(peers, ","), ClusterListener: lns[id]}
		if tweak != nil {
			tweak(id, &c)
		}
		nodes[id] = openNode(t, c)
	}
	return nodes
}

// get serves one request through the node's mux.
func get(t *testing.T, n *Node, path string) *httptest.ResponseRecorder {
	t.Helper()
	return serve(n, http.MethodGet, path)
}

func serve(n *Node, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

// decode parses a JSON object response.
func decode(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// batch is one agent round: one sample per series at t.
func batch(ids []metric.ID, t int64, v float64) *wire.Batch {
	b := &wire.Batch{Agent: "agent"}
	for _, id := range ids {
		b.Records = append(b.Records, wire.Record{
			ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt,
			Samples: []metric.Sample{{T: t, V: v}},
		})
	}
	return b
}

// ingest sends b to n as an agent would, over one connection to n's ingest
// listener, and returns once n has handled it: a pong answers only after
// every frame sent before it.
func ingest(t *testing.T, n *Node, b *wire.Batch) {
	t.Helper()
	c, err := wire.Dial(n.Wire().Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// seriesOwnedBy returns at least want series, at least one of them placed
// on owner by n's ring, and the ones that are.
func seriesOwnedBy(n *Node, owner string, want int) (ids []metric.ID, owned []metric.ID) {
	ring := n.Router().Ring()
	for i := 0; len(ids) < want || len(owned) == 0; i++ {
		id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", fmt.Sprintf("n%03d", i))}
		ids = append(ids, id)
		if ring.Primary(id.Key()) == owner {
			owned = append(owned, id)
		}
	}
	return ids, owned
}

// TestOpenRefusesBadConfig: every configuration check is an error from
// Open (and ClusterAddr) worded with the flag's name, and Open closes the
// listener it was handed.
func TestOpenRefusesBadConfig(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"rf below 1", Config{RF: 0}, "-rf must be >= 1, got 0"},
		{"vnodes negative", Config{RF: 1, VNodes: -1}, "-vnodes must be in [1, 4096] (or 0 for the default), got -1"},
		{"vnodes above 4096", Config{RF: 1, VNodes: 4097}, "got 4097"},
		{"peers without node id", Config{RF: 1, Peers: "a=127.0.0.1:1"}, "-peers requires -node-id"},
		{"node id without peers", Config{RF: 1, NodeID: "a"}, "-node-id/-rf/-vnodes need -peers"},
		{"rf without peers", Config{RF: 2}, "-node-id/-rf/-vnodes need -peers"},
		{"vnodes without peers", Config{RF: 1, VNodes: 64}, "-node-id/-rf/-vnodes need -peers"},
		{"malformed peer", Config{RF: 1, NodeID: "a", Peers: "a=127.0.0.1:1,b"}, `-peers: peer "b" must be id=host:port`},
		{"node id not a peer", Config{RF: 1, NodeID: "c", Peers: "a=127.0.0.1:1,b=127.0.0.1:2"}, `cluster: self node "c" not in peer set`},
		{"bad fsync", Config{RF: 1, DataDir: dir, Fsync: "sometimes"}, `unknown fsync policy "sometimes"`},
		{"bad rollups", Config{RF: 1, Rollups: "1m,hourly"}, "-rollups: "},
		{"rollup below 1s", Config{RF: 1, Rollups: "500ms"}, "-rollups: tier resolution 500ms below 1s"},
		{"cluster listener missing", Config{RF: 1, NodeID: "a", Peers: "a=127.0.0.1:1"}, "cluster listener"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.ClusterAddr(); tc.name != "cluster listener missing" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("ClusterAddr: err %v, want %q", err, tc.want)
			}
			ln := listen(t)
			tc.cfg.Listener = ln
			n, err := Open(tc.cfg)
			if err == nil {
				n.Close()
				t.Fatalf("Open accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q, want it to contain %q", err, tc.want)
			}
			if c, err := ln.Accept(); err == nil {
				c.Close()
				t.Fatal("Open left the ingest listener open")
			}
		})
	}
	if _, err := Open(Config{RF: 1}); err == nil || !strings.Contains(err.Error(), "no ingest listener") {
		t.Fatalf("Open without an ingest listener: %v", err)
	}
	addr, err := Config{RF: 2, NodeID: "b", Peers: "a=127.0.0.1:1, b=127.0.0.1:2"}.ClusterAddr()
	if err != nil || addr != "127.0.0.1:2" {
		t.Fatalf("ClusterAddr = %q, %v; want b's entry", addr, err)
	}
}

// TestHandlerRoutes pins the mux's routes and status codes.
func TestHandlerRoutes(t *testing.T) {
	single := openNode(t, Config{RF: 1})
	for path, want := range map[string]int{
		"/snapshot":               200,
		"/dashboard":              200,
		"/stats":                  200,
		"/analyze":                200,
		"/cluster/status":         404,
		"/cluster/join":           404,
		"/cluster/leave":          404,
		"/query?series=x":         400,
		"/analyze?window_hours=0": 400,
		// ParseFloat takes all of these; none is a window.
		"/analyze?window_hours=NaN":   400,
		"/analyze?window_hours=-Inf":  400,
		"/analyze?window_hours=+Inf":  400,
		"/analyze?window_hours=1e300": 400,
		"/analyze?window_hours=3e12":  400, // 1.08e19 ms overflows an int64
		"/analyze?window_hours=2e12":  200, // 7.2e18 ms does not
	} {
		if rec := get(t, single, path); rec.Code != want {
			t.Fatalf("single node GET %s: %d, want %d", path, rec.Code, want)
		}
	}

	clustered := openCluster(t, []string{"a"}, 1, nil)["a"]
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/cluster/status", 200},
		{http.MethodGet, "/cluster/join?seed=127.0.0.1:1", 405},
		{http.MethodGet, "/cluster/leave", 405},
		{http.MethodPost, "/cluster/join", 400},
		{http.MethodGet, "/snapshot", 200},
	} {
		if rec := serve(clustered, tc.method, tc.path); rec.Code != tc.want {
			t.Fatalf("cluster node %s %s: %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
	}
	if _, ok := decode(t, get(t, clustered, "/stats"))["cluster"]; !ok {
		t.Fatal("a clustered node's /stats has no cluster section")
	}
}

// TestRejectedSamplesCounted: a batch that repeats k timestamps moves
// ingest_rejected by exactly k.
func TestRejectedSamplesCounted(t *testing.T) {
	n := openNode(t, Config{RF: 1})
	ids := []metric.ID{{Name: "node_power_watts", Labels: metric.NewLabels("node", "n0")}}
	for ts := int64(1); ts <= 10; ts++ {
		ingest(t, n, batch(ids, ts*1000, 1))
	}
	if got := n.Rejected(); got != 0 {
		t.Fatalf("rejected %d in-order samples", got)
	}
	const k = 3
	b := batch(ids, 0, 0)
	b.Records[0].Samples = []metric.Sample{{T: 8000}, {T: 9000}, {T: 10000}, {T: 11000}, {T: 12000}}
	ingest(t, n, b)
	if got := n.Rejected(); got != k {
		t.Fatalf("Rejected() = %d, want %d", got, k)
	}
	if got := decode(t, get(t, n, "/stats"))["ingest_rejected"]; got != float64(k) {
		t.Fatalf("ingest_rejected = %v, want %d", got, k)
	}
	if got := n.Store().NumSamples(); got != 12 {
		t.Fatalf("store holds %d samples, want 12", got)
	}
}

// TestForwardsMoveTheWatermark: a cluster node fed only by peer forwards
// advances its own watermark, so its /analyze window ends at its newest
// sample and its raw retention runs; a sample its store refuses is counted
// on it, not on the node the agent fed.
func TestForwardsMoveTheWatermark(t *testing.T) {
	nodes := openCluster(t, []string{"n1", "n2", "n3"}, 2, func(id string, c *Config) {
		if id == "n2" {
			c.RetainRawHours = 1
		}
	})
	n1, n2 := nodes["n1"], nodes["n2"]
	ids, owned := seriesOwnedBy(n1, "n2", 8)
	const ticks = 180 // three hours, minutely, fed to n1 only
	for tick := int64(1); tick <= ticks; tick++ {
		ingest(t, n1, batch(ids, tick*60_000, float64(tick)))
	}
	n1.Router().Flush()
	n1.Router().CheckPeers() // n2 answers the probe after applying every forward

	const newest = ticks * 60_000
	if got := newestSample(n2.Store()); got != newest {
		t.Fatalf("n2's newest sample %d, want %d", got, newest)
	}
	var window struct{ From, To int64 }
	if err := json.Unmarshal(get(t, n2, "/analyze?window_hours=1").Body.Bytes(), &window); err != nil {
		t.Fatal(err)
	}
	if window.To != newest+1 {
		t.Fatalf("n2 /analyze window ends at %d, want %d", window.To, newest+1)
	}
	// -retain-raw 1 keeps the chunks (8 samples each) that reach into the
	// last hour, and drops the two hours before.
	held := n2.Store().NumSamples()
	if lo, hi := 60*len(owned), 68*len(owned); held < lo || held > hi {
		t.Fatalf("n2 holds %d samples of %d series after retention, want %d..%d", held, len(owned), lo, hi)
	}

	// The agent repeats its first round: every sample is refused, each on
	// its owner.
	ingest(t, n1, batch(ids, 60_000, 1))
	n1.Router().Flush()
	n1.Router().CheckPeers()
	var total uint64
	for _, n := range nodes {
		total += n.Rejected()
	}
	if total != uint64(len(ids)) || n2.Rejected() != uint64(len(owned)) {
		t.Fatalf("rejected: %d in total, %d on n2; want %d and %d", total, n2.Rejected(), len(ids), len(owned))
	}
}

// TestRetentionIsLogged: on a durable node, -retain-raw and -retain-1m age
// raw chunks and 1m windows against the watermark, through the WAL, so a
// reopened node holds what the live one held.
func TestRetentionIsLogged(t *testing.T) {
	c := Config{DataDir: t.TempDir(), Fsync: "never", Rollups: "1m", ChunkSize: 8, RF: 1, RetainRawHours: 1, Retain1mHours: 2}
	c.Listener = listen(t)
	n, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	ids := []metric.ID{{Name: "a"}, {Name: "b"}}
	for tick := int64(1); tick <= 180; tick++ { // three hours, minutely
		ingest(t, n, batch(ids, tick*60_000, float64(tick)))
	}
	held := func(n *Node) (samples, windows int) {
		return n.Store().NumSamples(), n.Store().RollupStats().Tiers[0].Windows
	}
	samples, windows := held(n)
	// Raw keeps the 8-sample chunks reaching into the last hour; the tier
	// keeps the last two hours of windows, of 179 sealed.
	if samples < 2*60 || samples > 2*68 || windows < 2*120 || windows > 2*121 {
		t.Fatalf("after retention: %d samples, %d windows for 2 series", samples, windows)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	c.Listener = listen(t)
	re, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if s, w := held(re); s != samples || w != windows {
		t.Fatalf("reopened: %d samples, %d windows; live node held %d, %d", s, w, samples, windows)
	}
}

// TestCloseDrainsThenCheckpoints: an agent that sends and closes before the
// node's Close has every batch archived, and the checkpoint Close writes
// lets the next Open recover without replaying the WAL.
func TestCloseDrainsThenCheckpoints(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{Listener: listen(t), DataDir: dir, Fsync: "always", RF: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.Dial(n.Wire().Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The drain covers accepted connections; the pong says this one is.
	if _, err := client.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ids := []metric.ID{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	const batches = 25
	for i := int64(1); i <= batches; i++ {
		if err := client.Send(batch(ids, i*1000, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	re := openNode(t, Config{DataDir: dir, Fsync: "always", RF: 1})
	st := re.Durable().Stats()
	if got := re.Store().NumSamples(); got != batches*len(ids) {
		t.Fatalf("reopened store holds %d samples, want %d", got, batches*len(ids))
	}
	if !st.SnapshotLoaded || st.ReplayedRecords != 0 {
		t.Fatalf("recovery: snapshot loaded %v, %d WAL records replayed; want a snapshot and none", st.SnapshotLoaded, st.ReplayedRecords)
	}
}

// TestCloseDeliversBufferedForwards: a sample the router holds for a peer
// is on that peer before Close returns.
func TestCloseDeliversBufferedForwards(t *testing.T) {
	nodes := openCluster(t, []string{"n1", "n2"}, 1, nil)
	n1, n2 := nodes["n1"], nodes["n2"]
	_, owned := seriesOwnedBy(n1, "n2", 1)
	ingest(t, n1, batch(owned[:1], 1000, 1))
	if got := n2.Store().NumSamples(); got != 0 {
		t.Fatalf("n2 holds %d samples before any flush", got)
	}
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := n2.Store().NumSamples(); got != 1 {
		t.Fatalf("n2 holds %d samples after n1's Close, want the forwarded one", got)
	}
}

// TestCoordinatorStoresOnlyWhatItOwns: the node an agent feeds resolves the
// agent's series in its router's own table, never in its store, so its
// (durable) store holds exactly the series it owns — none of those it only
// forwards, not even empty — and their owner holds the rest.
func TestCoordinatorStoresOnlyWhatItOwns(t *testing.T) {
	nodes := openCluster(t, []string{"n1", "n2"}, 1, func(id string, c *Config) {
		c.DataDir, c.Fsync = t.TempDir(), "never"
	})
	n1, n2 := nodes["n1"], nodes["n2"]
	ids, owned := seriesOwnedBy(n1, "n2", 16)
	for tick := int64(1); tick <= 3; tick++ {
		ingest(t, n1, batch(ids, tick*1000, float64(tick)))
	}
	n1.Router().Flush()
	n1.Router().CheckPeers()
	held := func(n *Node) map[string]bool {
		keys := map[string]bool{}
		for _, id := range n.Store().Select("", nil) {
			keys[id.Key()] = true
		}
		return keys
	}
	on1, on2 := held(n1), held(n2)
	for _, id := range ids {
		toN2 := n1.Router().Ring().Primary(id.Key()) == "n2"
		if on1[id.Key()] == toN2 || on2[id.Key()] != toN2 {
			t.Fatalf("%s (owner n2: %v): on n1 %v, on n2 %v", id.Key(), toN2, on1[id.Key()], on2[id.Key()])
		}
	}
	if len(on1)+len(on2) != len(ids) || len(on2) != len(owned) {
		t.Fatalf("n1 holds %d series, n2 %d; want %d and %d", len(on1), len(on2), len(ids)-len(owned), len(owned))
	}
	if got := n1.Store().NumSamples() + n2.Store().NumSamples(); got != 3*len(ids) {
		t.Fatalf("the cluster holds %d samples, want %d", got, 3*len(ids))
	}
}

// TestConcurrentAgentsOneNode: two agent connections write one node at once,
// in memory and durable, with rollups and retention running on every
// append. Nothing serialises them above the store, so this is the race
// detector's case (make race); every sample lands and none is refused.
func TestConcurrentAgentsOneNode(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			c := Config{RF: 1, ChunkSize: 8, Rollups: "1m", RetainRawHours: 1000}
			if durable {
				c.DataDir, c.Fsync = t.TempDir(), "interval"
			}
			n := openNode(t, c)
			const agents, series, rounds = 2, 12, 150
			var wg sync.WaitGroup
			errs := make(chan error, agents)
			for a := 0; a < agents; a++ {
				ids := make([]metric.ID, series)
				for i := range ids {
					ids[i] = metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("agent", fmt.Sprint(a), "sensor", fmt.Sprint(i))}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl, err := wire.Dial(n.Wire().Addr())
					if err != nil {
						errs <- err
						return
					}
					defer cl.Close()
					for r := int64(1); r <= rounds; r++ {
						if err := cl.Send(batch(ids, r*10_000, float64(r))); err != nil {
							errs <- err
							return
						}
					}
					if _, err := cl.Ping(5 * time.Second); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got, want := n.Store().NumSamples(), agents*series*rounds; got != want || n.Rejected() != 0 {
				t.Fatalf("store holds %d samples (%d refused), want %d", got, n.Rejected(), want)
			}
			if got := len(n.Store().Select("", nil)); got != agents*series {
				t.Fatalf("store holds %d series, want %d", got, agents*series)
			}
		})
	}
}
