package collector

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// gatedSink blocks inside Consume until the test releases it, making queue
// occupancy — and therefore drop counts — exact instead of timing-dependent:
// the test always knows how many batches are in flight vs queued.
type gatedSink struct {
	started chan struct{} // receives one token when a Consume begins
	release chan struct{} // Consume blocks until it can receive a token

	mu    sync.Mutex
	times []int64 // `now` of every completed batch, in delivery order
}

func newGatedSink() *gatedSink {
	return &gatedSink{started: make(chan struct{}, 1024), release: make(chan struct{}, 1024)}
}

func (g *gatedSink) Consume(_ string, now int64, _ []Reading) error {
	g.started <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.times = append(g.times, now)
	g.mu.Unlock()
	return nil
}

func (g *gatedSink) delivered() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int64(nil), g.times...)
}

// waitStarted blocks until the pump has a batch inside Consume.
func (g *gatedSink) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(5 * time.Second):
		t.Fatal("sink never entered Consume")
	}
}

// releaseAll lets every pending and future Consume finish immediately.
func (g *gatedSink) releaseAll() { close(g.release) }

// recordSink keeps every reading it is handed, in delivery order: the
// "second sink" the ordering tests compare against the store.
type recordSink struct {
	mu  sync.Mutex
	got []recorded
}

type recorded struct {
	key    string
	sample metric.Sample
}

func (s *recordSink) Consume(_ string, now int64, readings []Reading) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range readings {
		s.got = append(s.got, recorded{r.ID.Key(), metric.Sample{T: now, V: r.Value}})
	}
	return nil
}

func (s *recordSink) readings() []recorded {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]recorded(nil), s.got...)
}

// sleepSink simulates a slow consumer: every batch costs `delay`.
type sleepSink struct {
	delay time.Duration
}

func (s *sleepSink) Consume(string, int64, []Reading) error {
	time.Sleep(s.delay)
	return nil
}

func expectTimes(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// TestSlowSinkDoesNotStallTick is the headline acceptance test: with a sink
// whose Consume costs 10x the scrape interval, the agent's tick cadence is
// unchanged because Tick only enqueues.
func TestSlowSinkDoesNotStallTick(t *testing.T) {
	const interval = 5 * time.Millisecond
	slow := &sleepSink{delay: 10 * interval}
	agent := NewAgent("a0", interval)
	agent.AddSource(constSource("power", 1))
	agent.AddSinkQueued(slow, QueueConfig{Depth: 2, Policy: DropOldest})

	const rounds = 40
	start := time.Now()
	for i := int64(1); i <= rounds; i++ {
		agent.Tick(i * 1000)
	}
	elapsed := time.Since(start)
	// 40 synchronous rounds would cost >= 40 * 50ms = 2s. The async agent
	// must finish in a small fraction of one sink delay per round; give a
	// wide margin for CI schedulers while staying an order of magnitude
	// below the synchronous cost.
	if budget := time.Duration(rounds) * interval; elapsed > budget {
		t.Fatalf("%d ticks took %v with a %v-per-batch sink (budget %v)", rounds, elapsed, slow.delay, budget)
	}
	agent.Close()

	// Accounting identity: every round's batch was either delivered or
	// counted as dropped — nothing silently vanished, and Close drained
	// the backlog.
	st := agent.Stats()
	ss := agent.SinkStats()[0]
	if ss.Consumed+ss.Dropped != rounds {
		t.Fatalf("consumed %d + dropped %d != %d rounds", ss.Consumed, ss.Dropped, rounds)
	}
	if st.DroppedBatches != ss.Dropped {
		t.Fatalf("agent dropped %d != sink dropped %d", st.DroppedBatches, ss.Dropped)
	}
	if ss.Queued != 0 {
		t.Fatalf("queue not drained: %d left", ss.Queued)
	}
}

// TestDropNewestExactCounts pins the queue with a gated sink so the drop
// counter can be asserted exactly: depth 3, one batch in flight, three
// queued, and every further tick is dropped.
func TestDropNewestExactCounts(t *testing.T) {
	g := newGatedSink()
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSinkQueued(g, QueueConfig{Depth: 3, Policy: DropNewest})

	agent.Tick(1000) // picked up by the pump...
	g.waitStarted(t) // ...which is now blocked inside Consume
	for i := int64(2); i <= 4; i++ {
		agent.Tick(i * 1000) // fills the queue: batches 2, 3, 4
	}
	for i := int64(5); i <= 7; i++ {
		agent.Tick(i * 1000) // queue full: 5, 6, 7 are dropped
	}

	if st := agent.Stats(); st.DroppedBatches != 3 {
		t.Fatalf("dropped = %d, want 3", st.DroppedBatches)
	}
	ss := agent.SinkStats()[0]
	if ss.Enqueued != 4 || ss.Queued != 3 || ss.Dropped != 3 || ss.Policy != DropNewest {
		t.Fatalf("sink stats = %+v", ss)
	}

	g.releaseAll()
	agent.Close()
	// The backlog that was accepted is delivered, in enqueue order.
	expectTimes(t, g.delivered(), 1000, 2000, 3000, 4000)
}

// TestDropOldestExactCounts mirrors the DropNewest test: the queue keeps the
// freshest window, evicting the oldest queued batch.
func TestDropOldestExactCounts(t *testing.T) {
	g := newGatedSink()
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSinkQueued(g, QueueConfig{Depth: 3, Policy: DropOldest})

	agent.Tick(1000)
	g.waitStarted(t)
	for i := int64(2); i <= 6; i++ {
		agent.Tick(i * 1000) // 2,3,4 fill; 5 evicts 2; 6 evicts 3
	}
	if st := agent.Stats(); st.DroppedBatches != 2 {
		t.Fatalf("dropped = %d, want 2", st.DroppedBatches)
	}

	g.releaseAll()
	agent.Close()
	expectTimes(t, g.delivered(), 1000, 4000, 5000, 6000)
}

// TestBlockPolicyAppliesBackpressure verifies Block's lossless guarantee:
// with the queue full, Tick stalls until the pump frees a slot, and no
// batch is ever dropped.
func TestBlockPolicyAppliesBackpressure(t *testing.T) {
	g := newGatedSink()
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSinkQueued(g, QueueConfig{Depth: 1, Policy: Block})

	agent.Tick(1000) // in flight
	g.waitStarted(t)
	agent.Tick(2000) // fills the single slot

	tickDone := make(chan struct{})
	go func() {
		agent.Tick(3000) // must block: queue full
		close(tickDone)
	}()
	select {
	case <-tickDone:
		t.Fatal("Tick returned with a full Block queue")
	case <-time.After(20 * time.Millisecond):
	}

	g.release <- struct{}{} // batch 1 completes; pump pops batch 2
	select {
	case <-tickDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Tick still blocked after a slot freed")
	}

	g.releaseAll()
	agent.Close()
	if st := agent.Stats(); st.DroppedBatches != 0 {
		t.Fatalf("Block dropped %d batches", st.DroppedBatches)
	}
	expectTimes(t, g.delivered(), 1000, 2000, 3000)
}

// TestCloseDrainsAcknowledgedBatches: batches accepted into the queue before
// Close are all delivered, even when Close races with a blocked pump.
func TestCloseDrainsAcknowledgedBatches(t *testing.T) {
	g := newGatedSink()
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSinkQueued(g, QueueConfig{Depth: 8, Policy: Block})

	for i := int64(1); i <= 5; i++ {
		agent.Tick(i * 1000)
	}
	closed := make(chan struct{})
	go func() {
		agent.Close()
		close(closed)
	}()
	g.releaseAll()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the sink drained")
	}

	expectTimes(t, g.delivered(), 1000, 2000, 3000, 4000, 5000)
	st := agent.Stats()
	ss := agent.SinkStats()[0]
	if st.DroppedBatches != 0 || ss.Consumed != 5 || ss.Queued != 0 {
		t.Fatalf("stats = %+v, sink = %+v", st, ss)
	}

	// Ticking after Close still feeds nothing into the closed queue, but
	// the drop is counted rather than silent.
	agent.Tick(6000)
	if st := agent.Stats(); st.DroppedBatches != 1 {
		t.Fatalf("post-close tick dropped = %d, want 1", st.DroppedBatches)
	}
	agent.Close() // idempotent
}

// TestQueuedMatchesSynchronous is the determinism acceptance test in the
// style of TestParallelStepDeterminism: the same source stream through a
// synchronous agent and through a queued (then drained) agent must leave
// byte-identical store content and bus message order, and a Depth 0 queue
// config must take the synchronous path outright.
func TestQueuedMatchesSynchronous(t *testing.T) {
	mkSources := func(agent *Agent) {
		for _, name := range []string{"power", "temp", "fan"} {
			name := name
			agent.AddSource(SourceFunc{
				SourceName: name,
				Fn: func(now int64) []Reading {
					// Deterministic, time-varying, multi-reading stream.
					return []Reading{
						{ID: metric.ID{Name: name, Labels: metric.NewLabels("node", "n0")}, Kind: metric.Gauge, Unit: metric.UnitWatt, Value: float64(now % 977)},
						{ID: metric.ID{Name: name, Labels: metric.NewLabels("node", "n1")}, Kind: metric.Gauge, Unit: metric.UnitWatt, Value: float64(now % 131)},
					}
				},
			})
		}
	}
	type fixture struct {
		store *timeseries.Store
		rec   *recordSink
		agent *Agent
	}
	mk := func(cfg QueueConfig) *fixture {
		f := &fixture{store: timeseries.NewStore(0), rec: &recordSink{}}
		f.agent = NewAgent("a0", time.Second)
		mkSources(f.agent)
		f.agent.AddSinkQueued(&StoreSink{Store: f.store}, cfg)
		f.agent.AddSinkQueued(f.rec, cfg)
		return f
	}

	sync0 := mk(QueueConfig{})                          // AddSink-equivalent
	depth0 := mk(QueueConfig{Depth: 0, Policy: Block})  // explicit depth 0
	queued := mk(QueueConfig{Depth: 16, Policy: Block}) // the async pipeline

	for i := int64(1); i <= 100; i++ {
		sync0.agent.Tick(i * 60_000)
		depth0.agent.Tick(i * 60_000)
		queued.agent.Tick(i * 60_000)
	}
	queued.agent.Close() // drain before comparing

	// Depth 0 must not have spawned a pump at all: it IS the sync path.
	for _, ss := range depth0.agent.SinkStats() {
		if ss.Depth != 0 {
			t.Fatalf("depth-0 sink got a queue: %+v", ss)
		}
	}

	wantMsgs := sync0.rec.readings()
	if len(wantMsgs) != 600 { // 100 rounds x 6 readings
		t.Fatalf("sync second-sink stream = %d readings, want 600", len(wantMsgs))
	}

	ids := sync0.store.Select("", nil)
	if len(ids) != 6 {
		t.Fatalf("series = %d, want 6", len(ids))
	}
	for _, other := range []*fixture{depth0, queued} {
		oids := other.store.Select("", nil)
		if len(oids) != len(ids) {
			t.Fatalf("series: %d vs %d", len(oids), len(ids))
		}
		for i := range ids {
			if oids[i].Key() != ids[i].Key() {
				t.Fatalf("series order differs: %s vs %s", oids[i].Key(), ids[i].Key())
			}
			want, err := sync0.store.QueryAll(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := other.store.QueryAll(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d vs %d samples", ids[i].Key(), len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s[%d]: %+v vs %+v", ids[i].Key(), j, got[j], want[j])
				}
			}
		}
		// Delivery order is preserved per sink.
		gotMsgs := other.rec.readings()
		if len(gotMsgs) != len(wantMsgs) {
			t.Fatalf("second-sink stream: %d vs %d readings", len(gotMsgs), len(wantMsgs))
		}
		for i := range wantMsgs {
			if gotMsgs[i] != wantMsgs[i] {
				t.Fatalf("second-sink reading %d differs: %+v vs %+v", i, gotMsgs[i], wantMsgs[i])
			}
		}
	}
}

// TestSlowSinkIsolation: a slow queued sink must not delay a fast sibling —
// the fast sink keeps receiving every batch on time.
func TestSlowSinkIsolation(t *testing.T) {
	store := timeseries.NewStore(0)
	g := newGatedSink() // never released until the end: maximally slow
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSink(&StoreSink{Store: store})
	agent.AddSinkQueued(g, QueueConfig{Depth: 2, Policy: DropOldest})

	for i := int64(1); i <= 50; i++ {
		agent.Tick(i * 1000)
	}
	if n := store.NumSamples(); n != 50 {
		t.Fatalf("fast sink got %d samples, want 50", n)
	}
	g.releaseAll()
	agent.Close()
}

// TestWireSinkRetriesWithBackoff: a dead endpoint consumes exactly
// MaxRetries retries and returns the final error; a healthy endpoint
// consumes none even with a send deadline armed.
func TestWireSinkRetriesWithBackoff(t *testing.T) {
	srv, err := wire.NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	sink := &WireSink{Client: client, MaxRetries: 3, RetryBackoff: time.Millisecond, SendDeadline: time.Second}
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 7))
	agent.AddSink(sink)

	agent.Tick(1000)
	if st := agent.Stats(); st.SinkErrors != 0 || sink.Retries() != 0 {
		t.Fatalf("healthy endpoint: stats = %+v, retries = %d", st, sink.Retries())
	}

	// Kill the transport: every attempt now fails fast, so the sink
	// retries MaxRetries times and then surfaces one sink error.
	client.Close()
	srv.Close()
	agent.Tick(2000)
	if st := agent.Stats(); st.SinkErrors != 1 {
		t.Fatalf("dead endpoint: stats = %+v, want 1 sink error", st)
	}
	if r := sink.Retries(); r != 3 {
		t.Fatalf("retries = %d, want 3", r)
	}
}

// TestPipelineStressRace hammers a queued agent from the wall-clock Run loop
// while stats are read concurrently — the -race target runs this to prove
// the pump/producer/stats paths are data-race free. Drops are expected
// (slow sink, shallow queue); the assertion is the accounting identity.
func TestPipelineStressRace(t *testing.T) {
	store := timeseries.NewStore(0)
	slow := &sleepSink{delay: 2 * time.Millisecond}
	agent := NewAgent("a0", time.Millisecond)
	agent.AddSource(constSource("power", 1))
	agent.AddSource(constSource("temp", 2))
	agent.AddSink(&StoreSink{Store: store})
	agent.AddSinkQueued(slow, QueueConfig{Depth: 4, Policy: DropOldest})
	agent.AddSinkQueued(&sleepSink{delay: time.Millisecond}, QueueConfig{Depth: 4, Policy: DropNewest})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent stats readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = agent.Stats()
				_ = agent.SinkStats()
			}
		}
	}()

	var tick int64
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		tick++
		agent.Tick(tick * 1000)
	}
	agent.Close()
	close(stop)
	wg.Wait()

	st := agent.Stats()
	if st.Rounds != uint64(tick) {
		t.Fatalf("rounds = %d, want %d", st.Rounds, tick)
	}
	for _, ss := range agent.SinkStats() {
		if ss.Depth == 0 {
			continue
		}
		if ss.Consumed+ss.Dropped != uint64(tick) {
			t.Fatalf("%s: consumed %d + dropped %d != %d ticks", ss.Sink, ss.Consumed, ss.Dropped, tick)
		}
		if ss.Queued != 0 {
			t.Fatalf("%s: %d batches left after Close", ss.Sink, ss.Queued)
		}
	}
}

// discardConn is a net.Conn whose writes succeed and vanish.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkWireSinkConsume is one agent's round — 32 readings — through the
// sink into a dictionary client, the series already defined: what every
// monitored node pays per interval. allocs/op is the batch, its records and
// its one sample array, not one slice per reading.
func BenchmarkWireSinkConsume(b *testing.B) {
	client, err := wire.DialWith(func(string) (net.Conn, error) { return discardConn{}, nil }, "discard")
	if err != nil {
		b.Fatal(err)
	}
	sink := &WireSink{Client: client}
	readings := make([]Reading, 32)
	for i := range readings {
		readings[i] = Reading{
			ID:   metric.NewID(fmt.Sprintf("sensor_%02d", i), metric.NewLabels("node", "n0042", "rack", "r02")),
			Kind: metric.Gauge, Unit: metric.UnitWatt, Value: float64(i),
		}
	}
	if err := sink.Consume("a0042", 0, readings); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.Consume("a0042", int64(i)*10_000, readings); err != nil {
			b.Fatal(err)
		}
	}
}
