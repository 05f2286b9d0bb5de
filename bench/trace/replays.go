package main

import (
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro/bench/report"
	"repro/internal/collector"
	"repro/internal/persist"
	"repro/internal/timeseries"
	"repro/internal/wire"
)

// Layer-only replays: where a layer's inner call cannot be interposed on
// (WireSink calls Client.Send directly, DurableStore calls the store
// directly), the layer is measured by replaying the rounds the traced
// pipeline captured into that layer's public function alone, and a layer's
// share is the difference between two such replays.

// discardConn accepts every write and has nothing to read.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (discardConn) Close() error                     { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

func discardClient() (*wire.Client, error) {
	c, err := wire.DialWith(func(string) (net.Conn, error) { return discardConn{}, nil }, "discard")
	if err != nil {
		return nil, err
	}
	c.EnableDict()
	return c, nil
}

// fsyncProbeRounds bounds the FsyncAlways replay: one fsync per round at
// about half a millisecond each.
const fsyncProbeRounds = 1500

// wireReplays measures the client side of the wire: encode alone, and the
// sink's batch building as Consume minus encode; then the kernel's share,
// by writing the captured byte stream through real loopback TCP.
func (l *layers) wireReplays(p *pipelineResult) error {
	perSample := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(p.cap.nsamples) }

	enc, err := discardClient()
	if err != nil {
		return err
	}
	var encode time.Duration
	p.cap.each(0, func(r round) {
		b := r.batch()
		t0 := time.Now()
		err = enc.Send(b)
		encode += time.Since(t0)
	})
	if err != nil {
		return fmt.Errorf("encode replay: %w", err)
	}

	sc, err := discardClient()
	if err != nil {
		return err
	}
	sink := &collector.WireSink{Client: sc}
	var consume time.Duration
	p.cap.each(0, func(r round) {
		t0 := time.Now()
		err = sink.Consume(r.agent, r.t, r.readings)
		consume += time.Since(t0)
	})
	if err != nil {
		return fmt.Errorf("sink replay: %w", err)
	}
	l.set("wire.encode_ns_per_sample", perSample(encode), "ns")
	l.set("collector.batch_ns_per_sample", perSample(consume-encode), "ns")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	drained := make(chan int64, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			drained <- 0
			return
		}
		n, _ := io.Copy(io.Discard, conn)
		conn.Close()
		drained <- n
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var transport time.Duration
	off := 0
	for _, n := range p.conn.writes {
		t0 := time.Now()
		_, err = conn.Write(p.stream[off : off+int(n)])
		transport += time.Since(t0)
		if err != nil {
			return fmt.Errorf("transport replay: %w", err)
		}
		off += int(n)
	}
	conn.Close()
	if got := <-drained; got != int64(len(p.stream)) {
		return fmt.Errorf("transport replay: %d of %d bytes arrived", got, len(p.stream))
	}
	l.set("wire.transport_ns_per_sample", perSample(transport), "ns")
	return nil
}

// appendAll replays every captured round into app through a RefCache — the
// path odad's handler takes — and returns the time spent inside
// AppendBatch, with the first fsyncProbeRounds rounds' own durations.
func appendAll(c *capture, limit int, app timeseries.RefAppender) (total time.Duration, first []float64, err error) {
	rc := timeseries.NewRefCache(app)
	var buf []timeseries.BatchEntry
	c.each(limit, func(r round) {
		buf = r.entries(buf)
		t0 := time.Now()
		n, aerr := rc.AppendBatch(buf)
		d := time.Since(t0)
		total += d
		if len(first) < fsyncProbeRounds {
			first = append(first, float64(d.Nanoseconds())/1e3)
		}
		if err == nil && (aerr != nil || n != len(buf)) {
			err = fmt.Errorf("append replay: %d of %d appended: %v", n, len(buf), aerr)
		}
	})
	return
}

// storeReplays splits what the pipeline sees as one store.append span:
// timeseries append, rollup fold, and persist's WAL on top. It leaves the
// fully loaded bare store behind as the archive the read probes query.
func (l *layers) storeReplays(p *pipelineResult) error {
	c := p.cap
	samples := float64(c.nsamples)
	perSample := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / samples }

	// First-touch Resolve, on a store that has seen nothing.
	fresh := timeseries.NewStore(0, storeOptions()...)
	nseries := 0
	t0 := time.Now()
	for _, tpl := range c.templates {
		for _, rd := range tpl {
			if _, err := fresh.Resolve(rd.ID, rd.Kind, rd.Unit); err != nil {
				return err
			}
			nseries++
		}
	}
	l.set("timeseries.resolve_ns_per_series", float64(time.Since(t0).Nanoseconds())/float64(nseries), "ns")

	plain, _, err := appendAll(c, 0, timeseries.NewStore(0))
	if err != nil {
		return err
	}
	l.archive = timeseries.NewStore(0, storeOptions()...)
	rolled, _, err := appendAll(c, 0, l.archive)
	if err != nil {
		return err
	}
	l.set("timeseries.append_ns_per_sample", perSample(plain), "ns")
	l.set("timeseries.rollup_fold_ns_per_sample", perSample(rolled-plain), "ns")
	l.set("timeseries.compressed_bytes_per_sample", float64(l.archive.CompressedBytes())/float64(l.archive.NumSamples()), "B")

	// persist over the same store configuration, with the disk out of the
	// picture (FsyncNever): what the WAL encode and write cost.
	dir := filepath.Join(l.dir, "persist")
	d, err := persist.Open(dir, persist.Options{StoreOptions: storeOptions(), Fsync: persist.FsyncNever})
	if err != nil {
		return err
	}
	durable, never, err := appendAll(c, 0, d)
	if err != nil {
		return err
	}
	l.set("persist.append_ns_per_sample", perSample(durable-rolled), "ns")
	l.set("persist.wal_bytes_per_sample", float64(d.Stats().WALBytes)/samples, "B")

	// Recovery path one: a crash leaves only the WAL; Open replays it.
	d.Crash()
	t0 = time.Now()
	d, err = persist.Open(dir, persist.Options{StoreOptions: storeOptions(), Fsync: persist.FsyncNever})
	if err != nil {
		return err
	}
	l.set("persist.replay_ns_per_sample", perSample(time.Since(t0)), "ns")
	if got := d.Store().NumSamples(); got != c.nsamples {
		l.fail("WAL replay recovered %d of %d samples", got, c.nsamples)
	}

	// A checkpoint, with a foreground appender beside it: the worst append
	// it sees is the stall a checkpoint imposes on ingest.
	done := make(chan error, 1)
	var ckpt time.Duration
	go func() {
		t0 := time.Now()
		err := d.Checkpoint()
		ckpt = time.Since(t0)
		done <- err
	}()
	var stall time.Duration
	rc := timeseries.NewRefCache(d)
	last := c.rounds[len(c.rounds)-1].t
	var buf []timeseries.BatchEntry
	extra := 0
foreground:
	for k := int64(1); ; k++ {
		var ferr error
		c.each(len(c.templates), func(r round) {
			// The first round of each agent again, stamped after the data.
			r.t = last + k*1000
			buf = r.entries(buf)
			t0 := time.Now()
			_, ferr = rc.AppendBatch(buf)
			stall = max(stall, time.Since(t0))
			extra += len(buf)
		})
		if ferr != nil {
			return ferr
		}
		select {
		case err := <-done:
			if err != nil {
				return err
			}
			break foreground
		default:
		}
	}
	l.set("persist.checkpoint_ms", float64(ckpt.Nanoseconds())/1e6, "ms")
	l.set("persist.checkpoint_stall_ms_max", float64(stall.Nanoseconds())/1e6, "ms")

	// Recovery path two: a clean Close checkpoints; Open loads the snapshot.
	if err := d.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	d, err = persist.Open(dir, persist.Options{StoreOptions: storeOptions(), Fsync: persist.FsyncNever})
	if err != nil {
		return err
	}
	l.set("persist.snapshot_load_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	st := d.Stats()
	if !st.SnapshotLoaded || st.ReplayedRecords != 0 {
		l.fail("clean restart replayed %d records (snapshot loaded: %v)", st.ReplayedRecords, st.SnapshotLoaded)
	}
	if got := d.Store().NumSamples(); got != c.nsamples+extra {
		l.fail("snapshot load recovered %d of %d samples", got, c.nsamples+extra)
	}
	if err := d.Checkpoint(); err != nil {
		return err
	}
	l.set("persist.snapshot_bytes_per_sample", float64(d.Stats().SnapshotBytes)/float64(c.nsamples+extra), "B")
	if err := d.Close(); err != nil {
		return err
	}

	// The disk back in the picture: the same first rounds under FsyncAlways.
	a, err := persist.Open(filepath.Join(l.dir, "always"), persist.Options{StoreOptions: storeOptions(), Fsync: persist.FsyncAlways})
	if err != nil {
		return err
	}
	_, always, err := appendAll(c, fsyncProbeRounds, a)
	if err != nil {
		return err
	}
	base := report.Median(append([]float64(nil), never[:len(always)]...))
	waits := make([]float64, len(always))
	for i, v := range always {
		waits[i] = max(0, v-base)
	}
	ast := a.Stats()
	l.setN("persist.fsync_wait_us_p50", report.Median(waits), "us", len(waits))
	l.setN("persist.fsync_wait_us_p99", report.Percentile(waits, 0.99), "us", len(waits))
	l.set("persist.fsyncs_per_batch", float64(ast.Fsyncs)/float64(len(always)), "count")
	l.set("persist.coalesced_sync_ratio", float64(ast.CoalescedSyncs)/float64(max(1, ast.Fsyncs+ast.CoalescedSyncs)), "ratio")
	return a.Close()
}
