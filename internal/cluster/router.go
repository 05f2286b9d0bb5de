package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// Peer names one cluster member: a stable node ID (the ring identity) and
// the address of its cluster listener.
type Peer struct {
	ID   string
	Addr string
}

// Config wires a Router into one odad process.
type Config struct {
	// Self is this node's ID; it must appear in Peers.
	Self string
	// Peers is the initial membership, including self. It seeds topology
	// epoch 1; joins and leaves evolve the membership at runtime.
	Peers []Peer
	// VNodes is the virtual-node count per peer (0 = DefaultVNodes).
	VNodes int
	// Replication is the replication factor (clamped to [1, len(Peers)]).
	Replication int
	// Dial opens connections to peers (nil = TCP); chaos tests inject
	// fault-wrapped in-memory transports here.
	Dial wire.Dialer
	// Local receives samples this node owns (and forwarded samples from
	// peers), through a RefCache: the DurableStore when one is configured,
	// otherwise Store.
	Local timeseries.RefAppender
	// Store is this node's primary read store.
	Store *timeseries.Store
	// Durable, when set, lets this node serve WAL replication to followers.
	Durable *persist.DurableStore
	// ReplicaOptions configure replica stores (must match the cluster-wide
	// store configuration — in particular rollup tiers — so planned queries
	// against a replica behave like the leader's).
	ReplicaOptions []timeseries.Option
}

const (
	// flushEntries is the per-peer forward buffer size that triggers an
	// automatic flush.
	flushEntries = 256
	// maxHintBatches bounds the per-peer hinted-handoff queue; overflow
	// drops the newest data and counts it.
	maxHintBatches = 4096
	// suspectAfter is how many consecutive missed probes turn a peer from
	// "down" into "suspect" in the failure detector's hysteresis.
	suspectAfter = 2
	// promoteAfter is how many consecutive missed probes of a leader let a
	// caught-up follower promote its replica to read-primary. It exceeds
	// suspectAfter so transient blips never promote.
	promoteAfter = 5
	pingTimeout  = 2 * time.Second // bounds failure-detector probes
	sendTimeout  = 5 * time.Second // bounds batch forwards
	rpcTimeout   = 5 * time.Second // bounds query/replication round trips
	// replPullBytes is the per-pull WAL byte budget.
	replPullBytes = 1 << 20
)

// Router is the cluster brain of one node: it places series on the ring,
// forwards foreign appends to their owners (parking them in a hinted-handoff
// queue while an owner is down), has each owner answer its series' queries
// whole (scattering multi-series reductions as fixed-size partials), and
// pulls WAL records from the leaders it follows. It implements the
// collector's batch-appender contract, so it drops into any ingest path a
// plain store fits.
//
// Topology is a runtime value, not construction-time state: the active
// Topology lives behind an atomic pointer, and applyTopology re-derives the
// peer set, replica assignments and parked-hint routing whenever a newer
// epoch arrives (a local join/leave, a peer's push, or anti-entropy after an
// epoch-mismatch rejection).
type Router struct {
	cfg  Config
	self string

	// topo is the active topology. Reads are lock-free; swaps happen under
	// mu so the peer/replica maps always correspond to the stored value.
	topo atomic.Pointer[Topology]

	// refCache fronts cfg.Local: every local append resolves each series
	// to a ref once and then appends by ref.
	refCache *timeseries.RefCache

	// mu guards the membership-derived state below. Routing holds it for
	// read, epoch flips for write — so no entry can buffer into a peer that
	// the flip is concurrently retiring.
	mu       sync.RWMutex
	peers    map[string]*peer // remote peers only
	peerList []*peer          // sorted by ID for deterministic iteration
	replicas map[string]*replica
	// departedDropped accumulates dropped-hint counts of peers removed by
	// epoch flips, so DroppedHintEntries stays monotonic across membership
	// changes.
	departedDropped uint64

	// memberMu serializes join/leave (operator-driven; concurrent membership
	// changes are out of scope — see DESIGN.md §14).
	memberMu sync.Mutex

	// Join import barrier. While a join handoff streams history out of the
	// donors, live forwards park here instead of applying: a forwarded
	// sample is always newer than the WAL history still in flight for its
	// series, and the store's monotonic append would reject that history if
	// the forward landed first. JoinCluster drains the queue — in arrival
	// order, after the final tail — under joinMu, so any handler that
	// observes joinParking=false is ordered after the entire queue applied.
	joinMu      sync.Mutex
	joinParking bool
	joinParked  []timeseries.BatchEntry

	localEntries     atomic.Uint64
	forwardedAllowed atomic.Uint64 // entries accepted for forwarding (sent or hinted)
	receivedBatches  atomic.Uint64
	receivedEntries  atomic.Uint64
	scatterQueries   atomic.Uint64
	partialQueries   atomic.Uint64
	replicaReads     atomic.Uint64 // queries this node served from a replica store
	epochFlips       atomic.Uint64 // topology swaps applied
	reroutedEntries  atomic.Uint64 // entries re-routed after an epoch flip or misdirected forward
	promotions       atomic.Uint64 // replica promotions after sustained leader death
	handoffEntries   atomic.Uint64 // entries imported/exported by join/leave streaming

	stop chan struct{}
	wg   sync.WaitGroup
	bg   sync.Once
}

// peer is the router's view of one remote node: its transport clients, the
// pending forward buffer, and the hinted-handoff queue that preserves
// delivery order across downtime.
type peer struct {
	id   string
	addr string
	self string // this node's ID, stamped as wire agent on forwards
	dial wire.Dialer

	mu    sync.Mutex
	wc    *wire.Client // lazy: the peer may be down at startup
	rc    *rpcClient
	buf   []timeseries.BatchEntry
	hints []hintBatch

	// misses counts consecutive failed probes — the failure detector's
	// hysteresis input: suspectAfter misses mark the peer suspect,
	// promoteAfter misses of a leader let its followers promote.
	misses int

	// Hint dictionary: parked entries carry a 4-byte ref into hintDefs
	// instead of a full metric ID, so a long outage queues samples, not
	// strings. Defs are interned per peer and live for the peer's lifetime
	// (bounded by series cardinality), which keeps refs in older parked
	// batches valid across drains and re-parks.
	hintRefs map[string]uint32 // series key -> index into hintDefs
	hintDefs []hintDef

	// counters under mu
	forwardedBatches   uint64
	forwardedEntries   uint64
	failedSends        uint64
	hintedBatches      uint64
	drainedBatches     uint64
	droppedHintEntries uint64
	hintSavedBytes     uint64

	up  atomic.Bool
	rtt atomic.Int64 // last ping round trip, nanoseconds
}

// hintDef is one interned series definition in a peer's hint dictionary.
type hintDef struct {
	id   metric.ID
	kind metric.Kind
	unit metric.Unit
}

// hintEntry is one parked sample: a dictionary ref plus the sample itself.
type hintEntry struct {
	ref uint32
	t   int64
	v   float64
}

// hintBatch is one parked batch plus the interning savings it booked, so
// dropping the batch can reverse its contribution to the byte gauge.
type hintBatch struct {
	entries []hintEntry
	saved   uint64
}

// New validates the config and builds the router on topology epoch 1.
// Start launches the background flush/health/replication loop, or tests
// drive Flush/CheckPeers/PumpReplication manually.
func New(cfg Config) (*Router, error) {
	if cfg.Local == nil || cfg.Store == nil {
		return nil, fmt.Errorf("cluster: config needs Local appender and Store")
	}
	members := make([]Member, 0, len(cfg.Peers))
	seen := make(map[string]bool, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.ID == "" {
			return nil, fmt.Errorf("cluster: peer with empty node id")
		}
		if seen[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", p.ID)
		}
		seen[p.ID] = true
		members = append(members, Member{ID: p.ID, Addr: p.Addr})
	}
	if !seen[cfg.Self] {
		return nil, fmt.Errorf("cluster: self node %q not in peer set", cfg.Self)
	}
	t, err := NewTopology(1, members, cfg.VNodes, cfg.Replication)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		self:     cfg.Self,
		refCache: timeseries.NewRefCache(cfg.Local),
		peers:    make(map[string]*peer),
		replicas: make(map[string]*replica),
		stop:     make(chan struct{}),
	}
	r.applyTopology(t)
	return r, nil
}

// newPeer builds the router's handle for one remote member.
func (r *Router) newPeer(id, addr string) *peer {
	p := &peer{
		id:   id,
		addr: addr,
		self: r.self,
		dial: r.cfg.Dial,
		rc:   newRPCClient(addr, r.cfg.Dial),
	}
	p.up.Store(true) // optimistic until a send or ping says otherwise
	return p
}

// closeClients tears down both transports of a retired peer.
func (p *peer) closeClients() {
	p.mu.Lock()
	if p.wc != nil {
		_ = p.wc.Close()
		p.wc = nil
	}
	p.mu.Unlock()
	p.rc.Close()
}

// Self returns this node's ID.
func (r *Router) Self() string { return r.self }

// Ring exposes the current topology's placement ring (read-only).
func (r *Router) Ring() *Ring { return r.topo.Load().Ring() }

// Topology returns the active topology value.
func (r *Router) Topology() *Topology { return r.topo.Load() }

// Epoch returns the active topology epoch.
func (r *Router) Epoch() uint64 { return r.topo.Load().Epoch }

// peer returns the handle for a member, or nil if it is not in the current
// membership.
func (r *Router) peer(id string) *peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.peers[id]
}

// peersSnapshot copies the peer list for lock-free iteration.
func (r *Router) peersSnapshot() []*peer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*peer(nil), r.peerList...)
}

// replicaFor returns the replica this node keeps of leader, or nil.
func (r *Router) replicaFor(leader string) *replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.replicas[leader]
}

// replicasSnapshot returns the replicas in sorted leader order.
func (r *Router) replicasSnapshot() []*replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	leaders := make([]string, 0, len(r.replicas))
	for l := range r.replicas {
		leaders = append(leaders, l)
	}
	sort.Strings(leaders)
	out := make([]*replica, 0, len(leaders))
	for _, l := range leaders {
		out = append(out, r.replicas[l])
	}
	return out
}

// applyTopology installs t if its epoch is newer than the active one and
// re-derives every piece of membership-dependent state: the peer set (new
// members get handles, departed ones are retired), the replica assignments
// (Leaders under the new ring), and — critically — every parked hint and
// pending forward buffer, which are stolen and re-routed under the new
// placement so no sample sits in a queue aimed at a node that no longer
// owns it. Per-series FIFO order survives the re-route: a series' parked
// samples live in one queue in order and are re-appended in that order.
func (r *Router) applyTopology(t *Topology) bool {
	if t == nil {
		return false
	}
	r.mu.Lock()
	cur := r.topo.Load()
	if cur != nil && t.Epoch <= cur.Epoch {
		r.mu.Unlock()
		return false
	}
	var stolen []timeseries.BatchEntry
	for _, p := range r.peerList {
		p.mu.Lock()
		if len(p.buf) > 0 {
			stolen = append(stolen, p.buf...)
			p.buf = nil
		}
		for _, h := range p.hints {
			stolen = append(stolen, p.unpackHintLocked(h.entries)...)
		}
		p.hints = nil
		p.mu.Unlock()
	}
	old := r.peers
	newPeers := make(map[string]*peer, len(t.Members))
	newList := make([]*peer, 0, len(t.Members))
	for _, m := range t.Members {
		if m.ID == r.self {
			continue
		}
		if p := old[m.ID]; p != nil && p.addr == m.Addr {
			newPeers[m.ID] = p
			newList = append(newList, p)
			continue
		}
		p := r.newPeer(m.ID, m.Addr)
		newPeers[m.ID] = p
		newList = append(newList, p)
	}
	sort.Slice(newList, func(i, j int) bool { return newList[i].id < newList[j].id })
	var departed []*peer
	for id, p := range old {
		if newPeers[id] != p {
			departed = append(departed, p)
			p.mu.Lock()
			r.departedDropped += p.droppedHintEntries
			p.mu.Unlock()
		}
	}
	newReps := make(map[string]*replica)
	if t.Has(r.self) {
		for _, leader := range t.Ring().Leaders(r.self) {
			if rep := r.replicas[leader]; rep != nil {
				newReps[leader] = rep
			} else {
				newReps[leader] = newReplica(leader, r.cfg.ReplicaOptions)
			}
		}
	}
	r.peers, r.peerList, r.replicas = newPeers, newList, newReps
	r.topo.Store(t)
	r.epochFlips.Add(1)
	// Re-route before releasing mu: a concurrent AppendBatch would otherwise
	// buffer newer samples of a stolen series ahead of the older ones, and
	// the owner would reject the older ones as out of order.
	if len(stolen) > 0 {
		r.reroutedEntries.Add(uint64(len(stolen)))
		_, _ = r.routeLocked(stolen, false)
	}
	r.mu.Unlock()
	for _, p := range departed {
		p.closeClients()
	}
	return true
}

// --- ingest path ---

// AppendBatch routes each entry to the node owning its series: owned
// entries hit the local appender directly, foreign ones buffer per peer and
// flush as wire batches. The returned count includes every forwarded entry —
// once buffered it is the router's responsibility, delivered by a send, a
// hinted-handoff drain, or counted in DroppedHintEntries.
func (r *Router) AppendBatch(entries []timeseries.BatchEntry) (int, error) {
	return r.route(entries, true)
}

// route is the placement loop behind AppendBatch. count=false re-routes
// entries that were already accounted for (epoch-flip re-routing, forwarded
// batches landing after an ownership change) without double-counting them.
// It holds the membership read-lock end to end, so no entry can buffer into
// a peer a concurrent epoch flip is retiring.
func (r *Router) route(entries []timeseries.BatchEntry, count bool) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.routeLocked(entries, count)
}

// routeLocked is route with r.mu already held, in either mode.
func (r *Router) routeLocked(entries []timeseries.BatchEntry, count bool) (int, error) {
	if len(r.peers) == 0 {
		n, err := r.appendLocal(entries, nil)
		if count {
			r.localEntries.Add(uint64(n))
		}
		return n, err
	}
	ring := r.topo.Load().Ring()
	var local []timeseries.BatchEntry
	var localKeys []string // ring-routing keys, reused by the ref cache
	var groups map[*peer][]timeseries.BatchEntry
	for i := range entries {
		e := &entries[i]
		key := e.ID.Key()
		owner := ring.Primary(key)
		if owner == r.self {
			local = append(local, *e)
			localKeys = append(localKeys, key)
			continue
		}
		if groups == nil {
			groups = make(map[*peer][]timeseries.BatchEntry, len(r.peers))
		}
		p := r.peers[owner]
		groups[p] = append(groups[p], *e)
	}
	accepted := 0
	var firstErr error
	if len(local) > 0 {
		n, err := r.appendLocal(local, localKeys)
		if count {
			r.localEntries.Add(uint64(n))
		}
		accepted += n
		firstErr = err
	}
	for p, g := range groups {
		p.mu.Lock()
		p.buf = append(p.buf, g...)
		if len(p.buf) >= flushEntries {
			p.flushLocked()
		}
		p.mu.Unlock()
		accepted += len(g)
		if count {
			r.forwardedAllowed.Add(uint64(len(g)))
		}
	}
	return accepted, firstErr
}

// appendLocal lands entries on this node's appender. keys[i], when non-nil,
// must be entries[i].ID.Key() (the ring already serialized them for routing).
func (r *Router) appendLocal(entries []timeseries.BatchEntry, keys []string) (int, error) {
	return r.refCache.AppendBatchKeys(entries, keys)
}

// Flush pushes every peer's pending forward buffer out now. Tests and the
// shutdown path call it directly; the background loop calls it on a timer.
func (r *Router) Flush() {
	for _, p := range r.peersSnapshot() {
		p.mu.Lock()
		p.flushLocked()
		p.mu.Unlock()
	}
}

// wireClientLocked lazily dials the batch-forwarding client; p.mu held.
func (p *peer) wireClientLocked() (*wire.Client, error) {
	if p.wc != nil {
		return p.wc, nil
	}
	wc, err := wire.DialWith(p.dial, p.addr)
	if err != nil {
		return nil, err
	}
	wc.SetTimeout(sendTimeout)
	p.wc = wc
	return wc, nil
}

func (p *peer) sendLocked(entries []timeseries.BatchEntry) error {
	wc, err := p.wireClientLocked()
	if err != nil {
		return err
	}
	return wc.Send(toWireBatch(p.self, entries))
}

// flushLocked dispatches the pending buffer: straight to the peer when it
// is up and no hints are queued, otherwise onto the hint queue — new data
// must never overtake parked data, or a series' timestamps would arrive out
// of order and be rejected. A failed send parks its batch at the FRONT of
// the queue, since it is older than everything already hinted.
func (p *peer) flushLocked() {
	if len(p.buf) == 0 {
		return
	}
	entries := p.buf
	p.buf = nil
	if !p.up.Load() || len(p.hints) > 0 {
		p.hintLocked(entries, false)
		return
	}
	if err := p.sendLocked(entries); err != nil {
		p.failedSends++
		p.up.Store(false)
		p.hintLocked(entries, true)
		return
	}
	p.forwardedBatches++
	p.forwardedEntries += uint64(len(entries))
}

func (p *peer) hintLocked(entries []timeseries.BatchEntry, front bool) {
	if len(p.hints) >= maxHintBatches {
		if !front {
			p.droppedHintEntries += uint64(len(entries))
			return
		}
		// A failed send is older than everything queued: make room by
		// dropping the newest hint rather than the oldest data. The dropped
		// batch's interning savings are reversed — a dropped byte was not
		// saved — so the gauge cannot drift upward across park/drop cycles.
		last := p.hints[len(p.hints)-1]
		p.hints = p.hints[:len(p.hints)-1]
		p.droppedHintEntries += uint64(len(last.entries))
		p.hintSavedBytes -= last.saved
	}
	packed := p.packHintLocked(entries)
	if front {
		p.hints = append([]hintBatch{packed}, p.hints...)
	} else {
		p.hints = append(p.hints, packed)
	}
	p.hintedBatches++
}

// packHintLocked dictionary-encodes a batch for parking: each entry's series
// is interned into the peer's hint dictionary and the parked form carries
// only the ref. Every entry whose series was already defined saves its key,
// unit and kind byte against the 4-byte ref; the running total feeds
// PeerStats.HintSavedBytes, and the per-batch share is remembered so a
// dropped batch can give its savings back.
func (p *peer) packHintLocked(entries []timeseries.BatchEntry) hintBatch {
	packed := hintBatch{entries: make([]hintEntry, len(entries))}
	for i := range entries {
		e := &entries[i]
		key := e.ID.Key()
		ref, ok := p.hintRefs[key]
		if !ok {
			if p.hintRefs == nil {
				p.hintRefs = make(map[string]uint32)
			}
			ref = uint32(len(p.hintDefs))
			p.hintDefs = append(p.hintDefs, hintDef{id: e.ID, kind: e.Kind, unit: e.Unit})
			p.hintRefs[key] = ref
		} else if saved := len(key) + len(e.Unit) + 1 - 4; saved > 0 {
			packed.saved += uint64(saved)
		}
		packed.entries[i] = hintEntry{ref: ref, t: e.T, v: e.V}
	}
	p.hintSavedBytes += packed.saved
	return packed
}

// unpackHintLocked rebuilds append entries from a parked batch.
func (p *peer) unpackHintLocked(batch []hintEntry) []timeseries.BatchEntry {
	entries := make([]timeseries.BatchEntry, len(batch))
	for i, h := range batch {
		d := &p.hintDefs[h.ref]
		entries[i] = timeseries.BatchEntry{ID: d.id, Kind: d.kind, Unit: d.unit, T: h.t, V: h.v}
	}
	return entries
}

// drainLocked replays hinted batches in FIFO order; it stops at the first
// failure (the peer relapsed) and reports whether the queue fully drained.
func (p *peer) drainLocked() bool {
	for len(p.hints) > 0 {
		entries := p.unpackHintLocked(p.hints[0].entries)
		if err := p.sendLocked(entries); err != nil {
			p.failedSends++
			return false
		}
		p.hints = p.hints[1:]
		p.drainedBatches++
		p.forwardedBatches++
		p.forwardedEntries += uint64(len(entries))
	}
	return true
}

// toWireBatch packs routed entries into a wire batch, grouping consecutive
// same-series entries into one record (entries arrive in series runs from
// the collector, so this usually collapses to one record per series).
func toWireBatch(agent string, entries []timeseries.BatchEntry) *wire.Batch {
	b := &wire.Batch{Agent: agent}
	cur := -1
	var curKey string
	for i := range entries {
		e := &entries[i]
		k := e.ID.Key()
		if cur < 0 || k != curKey {
			b.Records = append(b.Records, wire.Record{ID: e.ID, Kind: e.Kind, Unit: e.Unit})
			cur = len(b.Records) - 1
			curKey = k
		}
		b.Records[cur].Samples = append(b.Records[cur].Samples, metric.Sample{T: e.T, V: e.V})
	}
	return b
}

// entriesFromBatch flattens a wire batch back into append entries.
func entriesFromBatch(b *wire.Batch) []timeseries.BatchEntry {
	n := 0
	for i := range b.Records {
		n += len(b.Records[i].Samples)
	}
	entries := make([]timeseries.BatchEntry, 0, n)
	for i := range b.Records {
		rec := &b.Records[i]
		for _, sm := range rec.Samples {
			entries = append(entries, timeseries.BatchEntry{
				ID: rec.ID, Kind: rec.Kind, Unit: rec.Unit, T: sm.T, V: sm.V,
			})
		}
	}
	return entries
}

// applyForwarded lands a batch a peer routed to us. During a join handoff
// the entries park behind the import barrier (see joinMu) so streamed WAL
// history lands first; otherwise they deliver immediately.
func (r *Router) applyForwarded(b *wire.Batch) {
	entries := entriesFromBatch(b)
	r.joinMu.Lock()
	if r.joinParking {
		r.joinParked = append(r.joinParked, entries...)
		r.joinMu.Unlock()
		r.receivedBatches.Add(1)
		return
	}
	r.joinMu.Unlock()
	r.deliverForwarded(entries)
	r.receivedBatches.Add(1)
}

// deliverForwarded applies forwarded entries: those this node owns under
// the CURRENT topology go straight to the local appender; entries the
// sender placed under a stale epoch are re-routed to their actual owner
// rather than absorbed silently. Re-routing cannot ping-pong: joins move
// keys only toward the joiner and leaves only off the leaver, so two
// surviving nodes never disagree about each other — the re-routed hop lands
// on a node that accepts it under either epoch.
func (r *Router) deliverForwarded(entries []timeseries.BatchEntry) {
	ring := r.topo.Load().Ring()
	var local []timeseries.BatchEntry
	var localKeys []string
	var foreign []timeseries.BatchEntry
	for i := range entries {
		key := entries[i].ID.Key()
		if ring.Primary(key) == r.self {
			local = append(local, entries[i])
			localKeys = append(localKeys, key)
		} else {
			foreign = append(foreign, entries[i])
		}
	}
	n, _ := r.appendLocal(local, localKeys)
	r.receivedEntries.Add(uint64(n))
	if len(foreign) > 0 {
		r.reroutedEntries.Add(uint64(len(foreign)))
		_, _ = r.route(foreign, false)
	}
}

// --- failure detector ---

// CheckPeers probes every peer with a ping — the heartbeat that drives the
// lease state machine. A peer that answers — however slowly — is alive; its
// hinted batches drain in FIFO order and, once the queue is empty, it is
// marked up so fresh traffic flows directly again. A peer that does not
// answer is marked down and accrues a miss; consecutive misses escalate
// down → suspect (suspectAfter) → dead (promoteAfter), at which point
// updateLeases lets a caught-up follower promote its replica of the dead
// leader to read-primary. A peer recovering from misses also exchanges
// topologies (anti-entropy), so a node that slept through a membership
// change converges on the first heartbeat after it heals. Tests call this
// directly; Start runs it on a timer.
func (r *Router) CheckPeers() {
	for _, p := range r.peersSnapshot() {
		r.checkPeer(p)
	}
	r.updateLeases()
}

func (r *Router) checkPeer(p *peer) {
	p.mu.Lock()
	recovering := p.misses > 0
	wc, err := p.wireClientLocked()
	if err != nil {
		p.misses++
		p.up.Store(false)
		p.mu.Unlock()
		return
	}
	rtt, err := wc.Ping(pingTimeout)
	if err != nil {
		p.misses++
		p.up.Store(false)
		p.mu.Unlock()
		return
	}
	p.misses = 0
	p.rtt.Store(int64(rtt))
	if p.drainLocked() {
		p.up.Store(true)
	} else {
		p.up.Store(false)
	}
	p.mu.Unlock()
	if recovering {
		r.syncTopology(p)
	}
}

// updateLeases promotes and demotes replicas from the miss counters: a
// bootstrapped replica of a leader missing promoteAfter consecutive probes
// becomes read-primary (queries served from it stop being partial); the
// first successful probe of the leader demotes it again.
func (r *Router) updateLeases() {
	r.mu.RLock()
	reps := make(map[string]*replica, len(r.replicas))
	for l, rep := range r.replicas {
		reps[l] = rep
	}
	peers := r.peers
	r.mu.RUnlock()
	for leader, rep := range reps {
		p := peers[leader]
		if p == nil {
			continue
		}
		p.mu.Lock()
		misses := p.misses
		p.mu.Unlock()
		rep.mu.Lock()
		switch {
		case misses >= promoteAfter && rep.bootstrapped && !rep.promoted:
			rep.promoted = true
			r.promotions.Add(1)
		case misses == 0 && rep.promoted:
			rep.promoted = false
		}
		rep.mu.Unlock()
	}
}

// syncTopology exchanges topologies with a peer: adopt theirs if newer,
// push ours if theirs is older.
func (r *Router) syncTopology(p *peer) {
	t, err := p.rc.topo(rpcTimeout)
	if err != nil {
		return
	}
	mine := r.topo.Load()
	switch {
	case t.Epoch > mine.Epoch:
		r.applyTopology(t)
	case t.Epoch < mine.Epoch:
		_, _ = p.rc.topoPush(mine, rpcTimeout)
	}
}

// --- background loop ---

// Start launches the maintenance loop: flush forward buffers, probe peers
// (draining hints when one comes back), and pump replication. Stop halts it.
func (r *Router) Start(flushEvery, checkEvery time.Duration) {
	r.bg.Do(func() {
		if flushEvery <= 0 {
			flushEvery = 200 * time.Millisecond
		}
		if checkEvery <= 0 {
			checkEvery = time.Second
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			flushT := time.NewTicker(flushEvery)
			checkT := time.NewTicker(checkEvery)
			defer flushT.Stop()
			defer checkT.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-flushT.C:
					r.Flush()
				case <-checkT.C:
					r.CheckPeers()
					r.PumpReplication()
				}
			}
		}()
	})
}

// Stop halts the background loop (if running) and closes peer connections.
// Pending forward buffers are flushed one last time first.
func (r *Router) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	r.Flush()
	for _, p := range r.peersSnapshot() {
		p.mu.Lock()
		if p.wc != nil {
			_ = p.wc.Close()
		}
		p.rc.Close()
		p.mu.Unlock()
	}
}

// --- stats ---

// PeerStats is one remote node as this router sees it.
type PeerStats struct {
	ID                 string `json:"id"`
	Addr               string `json:"addr"`
	Up                 bool   `json:"up"`
	State              string `json:"state"` // up | down | suspect | dead
	Misses             int    `json:"misses"`
	RTTMicros          int64  `json:"rtt_us"`
	ForwardedBatches   uint64 `json:"forwarded_batches"`
	ForwardedEntries   uint64 `json:"forwarded_entries"`
	FailedSends        uint64 `json:"failed_sends"`
	HintedBatches      uint64 `json:"hinted_batches"`
	DrainedBatches     uint64 `json:"drained_batches"`
	DroppedHintEntries uint64 `json:"dropped_hint_entries"`
	HintSavedBytes     uint64 `json:"hint_saved_bytes"`
	PendingHintBatches int    `json:"pending_hint_batches"`
	PendingBufEntries  int    `json:"pending_buf_entries"`
}

// ReplicaStats is one leader this node follows.
type ReplicaStats struct {
	Leader       string `json:"leader"`
	Bootstrapped bool   `json:"bootstrapped"`
	Promoted     bool   `json:"promoted"`
	Records      uint64 `json:"records"`
	LagBytes     int64  `json:"lag_bytes"`
	Series       int    `json:"series"`
	Samples      int    `json:"samples"`
}

// Stats is the cluster section of /stats.
type Stats struct {
	Self             string         `json:"self"`
	Epoch            uint64         `json:"epoch"`
	Nodes            []string       `json:"nodes"`
	Members          []Member       `json:"members"`
	VNodes           int            `json:"vnodes"`
	Replication      int            `json:"replication"`
	LocalEntries     uint64         `json:"local_entries"`
	ForwardedEntries uint64         `json:"forwarded_entries"`
	ReceivedBatches  uint64         `json:"received_batches"`
	ReceivedEntries  uint64         `json:"received_entries"`
	ScatterQueries   uint64         `json:"scatter_queries"`
	PartialQueries   uint64         `json:"partial_queries"`
	ReplicaReads     uint64         `json:"replica_reads"`
	EpochFlips       uint64         `json:"epoch_flips"`
	ReroutedEntries  uint64         `json:"rerouted_entries"`
	Promotions       uint64         `json:"promotions"`
	HandoffEntries   uint64         `json:"handoff_entries"`
	Peers            []PeerStats    `json:"peers"`
	Replicas         []ReplicaStats `json:"replicas"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	t := r.topo.Load()
	st := Stats{
		Self:             r.self,
		Epoch:            t.Epoch,
		Nodes:            t.Ring().Nodes(),
		Members:          append([]Member(nil), t.Members...),
		VNodes:           t.Ring().VNodes(),
		Replication:      t.Ring().RF(),
		LocalEntries:     r.localEntries.Load(),
		ForwardedEntries: r.forwardedAllowed.Load(),
		ReceivedBatches:  r.receivedBatches.Load(),
		ReceivedEntries:  r.receivedEntries.Load(),
		ScatterQueries:   r.scatterQueries.Load(),
		PartialQueries:   r.partialQueries.Load(),
		ReplicaReads:     r.replicaReads.Load(),
		EpochFlips:       r.epochFlips.Load(),
		ReroutedEntries:  r.reroutedEntries.Load(),
		Promotions:       r.promotions.Load(),
		HandoffEntries:   r.handoffEntries.Load(),
	}
	for _, p := range r.peersSnapshot() {
		p.mu.Lock()
		state := "up"
		if !p.up.Load() {
			switch {
			case p.misses >= promoteAfter:
				state = "dead"
			case p.misses >= suspectAfter:
				state = "suspect"
			default:
				state = "down"
			}
		}
		ps := PeerStats{
			ID:                 p.id,
			Addr:               p.addr,
			Up:                 p.up.Load(),
			State:              state,
			Misses:             p.misses,
			RTTMicros:          p.rtt.Load() / 1000,
			ForwardedBatches:   p.forwardedBatches,
			ForwardedEntries:   p.forwardedEntries,
			FailedSends:        p.failedSends,
			HintedBatches:      p.hintedBatches,
			DrainedBatches:     p.drainedBatches,
			DroppedHintEntries: p.droppedHintEntries,
			HintSavedBytes:     p.hintSavedBytes,
			PendingHintBatches: len(p.hints),
			PendingBufEntries:  len(p.buf),
		}
		p.mu.Unlock()
		st.Peers = append(st.Peers, ps)
	}
	for _, rep := range r.replicasSnapshot() {
		st.Replicas = append(st.Replicas, rep.stats())
	}
	return st
}

// PendingHints reports the total hinted batches parked across all peers —
// the chaos campaign's "handoff fully drained" gauge.
func (r *Router) PendingHints() int {
	total := 0
	for _, p := range r.peersSnapshot() {
		p.mu.Lock()
		total += len(p.hints)
		p.mu.Unlock()
	}
	return total
}

// DroppedHintEntries reports entries dropped from overflowing hint queues,
// including queues of peers since retired by membership changes.
func (r *Router) DroppedHintEntries() uint64 {
	r.mu.RLock()
	total := r.departedDropped
	list := append([]*peer(nil), r.peerList...)
	r.mu.RUnlock()
	for _, p := range list {
		p.mu.Lock()
		total += p.droppedHintEntries
		p.mu.Unlock()
	}
	return total
}
