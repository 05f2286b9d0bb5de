package collector

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

func constSource(name string, value float64) Source {
	return SourceFunc{
		SourceName: name,
		Fn: func(now int64) []Reading {
			return []Reading{{
				ID:    metric.ID{Name: name, Labels: metric.NewLabels("node", "n0")},
				Kind:  metric.Gauge,
				Unit:  metric.UnitWatt,
				Value: value,
			}}
		},
	}
}

func TestAgentTickToStore(t *testing.T) {
	store := timeseries.NewStore(0)
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 200))
	agent.AddSource(constSource("temp", 60))
	agent.AddSink(&StoreSink{Store: store})

	for i := int64(0); i < 10; i++ {
		if n := agent.Tick(i * 1000); n != 2 {
			t.Fatalf("tick returned %d readings", n)
		}
	}
	if store.NumSeries() != 2 || store.NumSamples() != 20 {
		t.Fatalf("store = %d series / %d samples", store.NumSeries(), store.NumSamples())
	}
	st := agent.Stats()
	if st.Rounds != 10 || st.Readings != 20 || st.SinkErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreSinkCountsIngestErrors(t *testing.T) {
	store := timeseries.NewStore(0)
	sink := &StoreSink{Store: store}
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSink(sink)
	agent.Tick(1000)
	agent.Tick(1000) // duplicate timestamp -> store rejects
	if sink.Errors() != 1 {
		t.Fatalf("sink errors = %d", sink.Errors())
	}
	if store.NumSamples() != 1 {
		t.Fatalf("store samples = %d", store.NumSamples())
	}
	// The agent sees the same rejection the sink counted — the two error
	// paths agree — and a partial rejection is not a hard sink error.
	if st := agent.Stats(); st.RejectedSamples != 1 || st.SinkErrors != 0 {
		t.Fatalf("stats = %+v, want 1 rejected sample and 0 sink errors", st)
	}
}

func TestAgentToRecordingSink(t *testing.T) {
	rec := &recordSink{}
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 250))
	agent.AddSink(rec)
	agent.Tick(5000)
	got := rec.readings()
	want := recorded{"power{node=n0}", metric.Sample{T: 5000, V: 250}}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("sink saw %+v, want one reading %+v", got, want)
	}
}

func TestAgentToWire(t *testing.T) {
	var mu sync.Mutex
	var got []*wire.Batch
	srv, err := wire.NewServer("127.0.0.1:0", func(b *wire.Batch) {
		mu.Lock()
		got = append(got, b)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	agent := NewAgent("node07", time.Second)
	agent.AddSource(constSource("power", 300))
	agent.AddSink(&WireSink{Client: client})
	agent.Tick(1000)
	agent.Tick(2000)

	deadline := time.Now().Add(3 * time.Second)
	for srv.Batches() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("batches = %d", len(got))
	}
	if got[0].Agent != "node07" || len(got[0].Records) != 1 {
		t.Fatalf("batch = %+v", got[0])
	}
	if got[1].Records[0].Samples[0].T != 2000 {
		t.Fatalf("second batch = %+v", got[1].Records[0])
	}
}

func TestAgentRunWallClock(t *testing.T) {
	store := timeseries.NewStore(0)
	agent := NewAgent("a0", 5*time.Millisecond)
	agent.AddSource(constSource("power", 1))
	agent.AddSink(&StoreSink{Store: store})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	agent.Run(ctx)
	if st := agent.Stats(); st.Rounds < 5 {
		t.Fatalf("only %d rounds in 100ms at 5ms cadence", st.Rounds)
	}
}

func TestAgentConcurrentRegistration(t *testing.T) {
	agent := NewAgent("a0", time.Second)
	store := timeseries.NewStore(0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			agent.AddSource(constSource("m", float64(i)))
			agent.AddSink(&StoreSink{Store: store})
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 50; i++ {
			agent.Tick(i)
		}
	}()
	wg.Wait()
	<-done
}

// TestStoreSinkClosedStoreIsHardError: a durable store after Close refuses
// the scrape wholesale with (wrapped) ErrStoreClosed. That is one sink
// error, not N per-sample rejections.
func TestStoreSinkClosedStoreIsHardError(t *testing.T) {
	d, err := persist.Open(t.TempDir(), persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	sink := &StoreSink{Store: d}
	if err := sink.Consume("a0", 1000, []Reading{{ID: metric.ID{Name: "power"}, Kind: metric.Gauge, Value: 1}}); !errors.Is(err, timeseries.ErrStoreClosed) {
		t.Fatalf("Consume on a closed store = %v, want ErrStoreClosed", err)
	}
	agent := NewAgent("a0", time.Second)
	agent.AddSource(constSource("power", 1))
	agent.AddSink(sink)
	agent.Tick(1000)
	if sink.Errors() != 0 {
		t.Fatalf("closed store must not count as per-sample rejections, got %d", sink.Errors())
	}
	st := agent.Stats()
	if st.SinkErrors != 1 || st.RejectedSamples != 0 {
		t.Fatalf("stats = %+v, want 1 sink error and 0 rejected samples", st)
	}
}
