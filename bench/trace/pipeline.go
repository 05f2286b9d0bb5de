package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/feed"
	"repro/bench/gen"
	"repro/internal/cluster"
	"repro/internal/collector"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// The traced pipeline is the ingest path of one odad assembled in process
// and run on ONE goroutine: the wire client's connection is a syncConn
// whose Write decodes the frames and runs odad's handler inline. Every
// call into a layer is therefore nested inside its caller's span, a
// layer's self time is its span minus its children's, and the self times
// add up to the loop's wall time — which two goroutines overlapping on two
// cores would not. What that costs: the kernel's loopback and the overlap
// itself are absent, so transport is measured apart (wire.transport_*) and
// the end-to-end run, not this one, says what a sample costs in wall time.

// stack is the span stack of the pipeline goroutine.
type stack struct {
	t   *tracer
	ids []int
}

func (s *stack) push(name string) {
	if s == nil || s.t == nil {
		return
	}
	parent := -1
	if len(s.ids) > 0 {
		parent = s.ids[len(s.ids)-1]
	}
	s.ids = append(s.ids, s.t.begin(name, parent))
}

func (s *stack) pop() {
	if s == nil || s.t == nil {
		return
	}
	s.t.end(s.ids[len(s.ids)-1])
	s.ids = s.ids[:len(s.ids)-1]
}

// Span names of the ingest path, outermost first.
const (
	spanGen     = "gen"              // gen.Fleet.Next
	spanSim     = "simulation.step"  // DataCenter.RunFor, scrape included
	spanScrape  = "collector.scrape" // Agent.Tick
	spanSink    = "collector.sink"   // WireSink.Consume: batch build + wire encode
	spanConn    = "wire.conn"        // conn.Write: frame reassembly
	spanDecode  = "wire.decode"      // ReadFrame + AddDefs / DecodeRefBatch
	spanHandler = "odad.handler"     // cmd/odad's glue: entries, latest, dispatch
	spanRoute   = "cluster.route"    // Router.AppendBatch
	spanPeer    = "cluster.peer"     // conn.Write to a peer
	spanStore   = "store.append"     // RefAppender into DurableStore (persist + timeseries)
)

// spanSinkWrap interposes on the collector.Sink boundary.
type spanSinkWrap struct {
	st    *stack
	inner collector.Sink
	tee   collector.Sink // sees the same rounds, outside the span
}

func (w *spanSinkWrap) Consume(agent string, now int64, readings []collector.Reading) error {
	if w.tee != nil {
		_ = w.tee.Consume(agent, now, readings)
	}
	w.st.push(spanSink)
	defer w.st.pop()
	return w.inner.Consume(agent, now, readings)
}

// spanAppender interposes on the RefAppender boundary: it is the Local of a
// router, or what odad's RefCache wraps on a single node. On the pipeline
// goroutine it nests under the caller's span; on a peer's server goroutine
// it records a root span and tells the flush-wait probe what arrived.
type spanAppender struct {
	inner timeseries.RefAppender
	st    *stack  // pipeline goroutine, or nil
	tr    *tracer // peers: root spans
	seen  func(t int64, entries int)
}

func (a *spanAppender) enter() int {
	if a.st != nil {
		a.st.push(spanStore)
		return -1
	}
	return a.tr.begin(spanStore+".peer", -1)
}

func (a *spanAppender) leave(id int) {
	if a.st != nil {
		a.st.pop()
		return
	}
	a.tr.end(id)
}

// note reports how many entries of each round an arriving batch carries: a
// forwarded batch can hold several rounds, and a round can arrive in
// several batches.
func (a *spanAppender) note(n int, at func(i int) int64) {
	if a.seen == nil || n == 0 {
		return
	}
	t, run := at(0), 0
	for i := 0; i < n; i++ {
		if u := at(i); u != t {
			a.seen(t, run)
			t, run = u, 0
		}
		run++
	}
	a.seen(t, run)
}

func (a *spanAppender) AppendBatch(entries []timeseries.BatchEntry) (int, error) {
	id := a.enter()
	defer a.leave(id)
	a.note(len(entries), func(i int) int64 { return entries[i].T })
	return a.inner.AppendBatch(entries)
}

func (a *spanAppender) Resolve(id metric.ID, kind metric.Kind, unit metric.Unit) (timeseries.SeriesRef, error) {
	sid := a.enter()
	defer a.leave(sid)
	return a.inner.Resolve(id, kind, unit)
}

func (a *spanAppender) AppendRefs(entries []timeseries.RefEntry) (int, error) {
	id := a.enter()
	defer a.leave(id)
	a.note(len(entries), func(i int) int64 { return entries[i].T })
	return a.inner.AppendRefs(entries)
}

func (a *spanAppender) RefEpoch() uint64 { return a.inner.RefEpoch() }

// syncConn is the ingest connection of the traced pipeline: a net.Conn
// whose Write reassembles frames and hands each to the server side at
// once, on the caller's goroutine.
type syncConn struct {
	st     *stack
	handle func(*wire.Batch)

	in   bytes.Buffer // written, not yet a whole frame
	out  bytes.Buffer // pongs waiting to be read
	dict *wire.ConnDict

	bytes, frames, defs int64
	stream              *[]byte // when set, the raw byte stream is kept,
	writes              []int32 // with the size of each write
	err                 error
}

const frameHeaderLen = 12

func (c *syncConn) Write(p []byte) (int, error) {
	c.st.push(spanConn)
	defer c.st.pop()
	c.bytes += int64(len(p))
	if c.stream != nil {
		*c.stream = append(*c.stream, p...)
		c.writes = append(c.writes, int32(len(p)))
	}
	c.in.Write(p)
	for {
		b := c.in.Bytes()
		if len(b) < frameHeaderLen {
			break
		}
		n := frameHeaderLen + int(binary.BigEndian.Uint32(b[4:8]))
		if len(b) < n {
			break
		}
		if err := c.serve(c.in.Next(n)); err != nil {
			c.err = err
			return 0, err
		}
	}
	return len(p), nil
}

// serve is wire.Server.serveConn's loop body for one frame.
func (c *syncConn) serve(frame []byte) error {
	c.frames++
	c.st.push(spanDecode)
	ft, payload, err := wire.ReadFrame(bytes.NewReader(frame))
	var b *wire.Batch
	if err == nil {
		switch ft {
		case wire.FramePing:
			err = wire.WriteFrame(&c.out, wire.FramePong, payload)
		case wire.FrameDict:
			if c.dict == nil {
				c.dict = wire.NewConnDict()
			}
			var n int
			n, err = c.dict.AddDefs(payload)
			c.defs += int64(n)
		case wire.FrameRefBatch:
			if c.dict == nil {
				err = fmt.Errorf("ref batch before any dictionary frame")
			} else {
				b, err = c.dict.DecodeRefBatch(payload)
			}
		case wire.FrameBatch:
			b, err = wire.DecodeBatch(payload)
		default:
			err = fmt.Errorf("unexpected frame type %d", ft)
		}
	}
	c.st.pop()
	if err != nil || b == nil {
		return err
	}
	c.st.push(spanHandler)
	c.handle(b)
	c.st.pop()
	return nil
}

func (c *syncConn) Read(p []byte) (int, error)       { return c.out.Read(p) }
func (c *syncConn) Close() error                     { return nil }
func (c *syncConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *syncConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *syncConn) SetDeadline(time.Time) error      { return nil }
func (c *syncConn) SetReadDeadline(time.Time) error  { return nil }
func (c *syncConn) SetWriteDeadline(time.Time) error { return nil }

// peerConn counts and (on the pipeline goroutine) times what a router
// writes to a peer.
type peerConn struct {
	net.Conn
	st    *atomic.Pointer[stack]
	bytes *atomic.Int64
}

func (c peerConn) Write(p []byte) (int, error) {
	st := c.st.Load()
	st.push(spanPeer)
	n, err := c.Conn.Write(p)
	st.pop()
	c.bytes.Add(int64(n))
	return n, err
}

// storeOptions are odad's defaults: rollups at 1m and 1h.
func storeOptions() []timeseries.Option {
	return []timeseries.Option{timeseries.WithRollups(timeseries.TierStep1m, timeseries.TierStep1h)}
}

// member is one in-process odad: durable store plus, on a cluster, router
// and cluster listener.
type member struct {
	id      string
	durable *persist.DurableStore
	app     *spanAppender
	router  *cluster.Router
	srv     *cluster.Server
}

// site is the server side the pipeline writes into: node a, and on a
// cluster its peers b and c.
type site struct {
	members []*member
	refs    *timeseries.RefCache // single node: what odad's handler appends through
	latest  atomic.Int64

	peerStack atomic.Pointer[stack] // non-nil while peer writes happen on the pipeline goroutine
	peerBytes atomic.Int64

	st *stack // the pipeline goroutine's span stack

	seenMu   sync.Mutex
	arrivals []arrival // what reached the peers' appenders, and when
}

// arrival is part of a round landing on a peer.
type arrival struct {
	t       int64 // the round's virtual time
	entries int
	at      time.Time
}

// newSite opens nodes durable stores under dir and, for nodes > 1, joins
// them in an RF=2 ring over real loopback cluster listeners.
func newSite(dir string, nodes int, fsync persist.FsyncPolicy, st *stack, tr *tracer) (*site, error) {
	s := &site{st: st}
	var lns []net.Listener
	var peers []cluster.Peer
	for i := 0; i < nodes; i++ {
		id := string(rune('a' + i))
		d, err := persist.Open(filepath.Join(dir, id), persist.Options{StoreOptions: storeOptions(), Fsync: fsync})
		if err != nil {
			return nil, err
		}
		m := &member{id: id, durable: d, app: &spanAppender{inner: d, tr: tr}}
		if i == 0 {
			m.app.st = st
		} else {
			m.app.seen = func(t int64, entries int) {
				s.seenMu.Lock()
				s.arrivals = append(s.arrivals, arrival{t: t, entries: entries, at: time.Now()})
				s.seenMu.Unlock()
			}
		}
		s.members = append(s.members, m)
		if nodes > 1 {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			lns = append(lns, ln)
			peers = append(peers, cluster.Peer{ID: id, Addr: ln.Addr().String()})
		}
	}
	if nodes == 1 {
		s.refs = timeseries.NewRefCache(s.members[0].app)
		return s, nil
	}
	for i, m := range s.members {
		cfg := cluster.Config{
			Self: m.id, Peers: peers, Replication: 2,
			Local: m.app, Store: m.durable.Store(), Durable: m.durable, ReplicaOptions: storeOptions(),
		}
		if i == 0 {
			cfg.Dial = func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return peerConn{Conn: conn, st: &s.peerStack, bytes: &s.peerBytes}, nil
			}
		}
		r, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		m.router = r
		m.srv = cluster.NewServer(lns[i], r)
	}
	return s, nil
}

// handle is cmd/odad's ingest handler, statement for statement: flatten the
// batch into entries, advance the latest-timestamp watermark, dispatch to
// the router or the ref cache.
func (s *site) handle(b *wire.Batch) {
	var entries []timeseries.BatchEntry
	for _, rec := range b.Records {
		for _, sm := range rec.Samples {
			entries = append(entries, timeseries.BatchEntry{ID: rec.ID, Kind: rec.Kind, Unit: rec.Unit, T: sm.T, V: sm.V})
			for {
				cur := s.latest.Load()
				if sm.T <= cur || s.latest.CompareAndSwap(cur, sm.T) {
					break
				}
			}
		}
	}
	if r := s.members[0].router; r != nil {
		s.st.push(spanRoute)
		_, _ = r.AppendBatch(entries)
		s.st.pop()
		return
	}
	_, _ = s.refs.AppendBatch(entries)
}

func (s *site) close() {
	for _, m := range s.members {
		if m.router != nil {
			m.router.Stop()
			_ = m.srv.Close()
		}
	}
	for _, m := range s.members {
		_ = m.durable.Close()
	}
}

// samples sums the primaries' sample counts.
func (s *site) samples() int {
	n := 0
	for _, m := range s.members {
		n += m.durable.Store().NumSamples()
	}
	return n
}

// pipelineResult is one pass of the ingest pipeline.
type pipelineResult struct {
	wall    time.Duration
	samples int
	spans   []span
	conn    *syncConn
	client  *wire.Client
	site    *site
	feeder  feed.Feeder
	stream  []byte
	cap     *capture
}

// runPipeline drives ticks rounds of the workload through the in-process
// ingest path. With tr == nil nothing is recorded: the untraced twin.
func runPipeline(dir string, wl gen.Workload, seed int64, ticks, nodes int, tr *tracer, keep bool) (*pipelineResult, error) {
	st := &stack{t: tr}
	policy, err := persist.ParseFsyncPolicy(wl.Fsync)
	if err != nil {
		return nil, err
	}
	site, err := newSite(dir, nodes, policy, st, tr)
	if err != nil {
		return nil, err
	}
	res := &pipelineResult{site: site}
	conn := &syncConn{st: st, handle: site.handle}
	var tee collector.Sink
	if keep {
		conn.stream = &res.stream
		res.cap = newCapture()
		tee = res.cap
	}
	client, err := wire.DialWith(func(string) (net.Conn, error) { return conn, nil }, "in-process")
	if err != nil {
		return nil, err
	}
	client.EnableDict()
	f := feed.New(seed, wl, func(inner collector.Sink) collector.Sink {
		return &spanSinkWrap{st: st, inner: inner, tee: tee}
	})
	f.Attach(client)
	res.conn, res.client, res.feeder = conn, client, f

	// Forwards to peers flush on the pipeline goroutine — when a buffer
	// fills, and at each barrier — so their writes nest under the route
	// span. The background flusher is started later, for the paced probe.
	site.peerStack.Store(st)
	barrier := func() error {
		if r := site.members[0].router; r != nil {
			st.push(spanRoute)
			r.Flush()
			st.pop()
		}
		_, err := client.Ping(10 * time.Second)
		return err
	}
	start := time.Now()
	for k := 0; k < ticks; k++ {
		switch f := f.(type) {
		case *feed.Synth:
			st.push(spanGen)
			t := f.Next()
			st.pop()
			for a := range f.Agents {
				st.push(spanScrape)
				f.Scrape(a, t)
				st.pop()
			}
		case *feed.Sim:
			st.push(spanSim)
			f.Tick()
			st.pop()
		}
		if k%8 == 7 {
			if err := barrier(); err != nil {
				return nil, err
			}
		}
	}
	if err := barrier(); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	site.peerStack.Store(nil)
	res.samples = f.Sent()
	if conn.err != nil {
		return nil, conn.err
	}
	if tr != nil {
		tr.mu.Lock()
		res.spans = append([]span(nil), tr.spans...)
		tr.mu.Unlock()
	}
	// Peers apply on their own goroutines; wait until every sample landed.
	deadline := time.Now().Add(20 * time.Second)
	for site.samples() != res.samples {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("pipeline: %d of %d samples landed", site.samples(), res.samples)
		}
		time.Sleep(time.Millisecond)
	}
	return res, nil
}

// workDir makes a scratch directory under the checkout's build dir.
func workDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "trace-")
}
