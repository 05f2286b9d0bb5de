package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// paritySeries are the series TestWindowedReplayParity's streams define.
var paritySeries = []metric.ID{
	testID("power", "n01"), testID("temp", "n01"), testID("power", "n02"), testID("temp", "n02"),
}

func parityOptions() Options {
	return Options{ChunkSize: 8, StoreOptions: []timeseries.Option{timeseries.WithRollups(4000)}, Fsync: FsyncNever}
}

// parityStream builds a WAL record stream for TestWindowedReplayParity and
// says where its segments end.
type parityStream struct {
	payloads [][]byte
	cuts     []int // a segment ends before each of these record indexes
}

func (s *parityStream) def(ref uint64, series int) {
	s.payloads = append(s.payloads, encodeDefine(nil, ref, paritySeries[series], metric.Gauge, metric.UnitWatt))
}

func (s *parityStream) app(samples ...refSample) {
	s.payloads = append(s.payloads, appendColsPayload(samples))
}

// tick appends one record holding a sample for each of refs at time t.
func (s *parityStream) tick(t int64, refs ...uint64) {
	samples := make([]refSample, len(refs))
	for i, ref := range refs {
		samples[i] = refSample{ref: ref, t: t, v: float64(t/1000) + float64(ref)/10}
	}
	s.app(samples...)
}

func (s *parityStream) cut() { s.cuts = append(s.cuts, len(s.payloads)) }

// segments frames the stream as the WAL segments its cuts delimit.
func (s *parityStream) segments() [][]byte {
	var segs [][]byte
	from := 0
	for _, to := range append(s.cuts, len(s.payloads)) {
		segs = append(segs, frameSegment(s.payloads[from:to]...))
		from = to
	}
	return segs
}

func parityStreams() map[string]*parityStream {
	streams := map[string]*parityStream{}

	// Retention lands between two samples of one series inside a window:
	// the samples before it must be in the store when it runs.
	s := &parityStream{}
	s.def(1, 0)
	s.def(2, 1)
	for t := int64(1000); t <= 40000; t += 1000 {
		s.tick(t, 1, 2)
	}
	s.payloads = append(s.payloads, encodeRetain(nil, 20000))
	s.tick(41000, 1)
	s.payloads = append(s.payloads, encodeRetainTier(nil, 4000, 30000))
	s.tick(42000, 1, 2)
	s.payloads = append(s.payloads, encodeRetain(nil, 42000), encodeRetainTier(nil, 4000, 50000))
	for t := int64(43000); t <= 60000; t += 1000 {
		s.tick(t, 2, 1)
	}
	streams["retain inside a window"] = s

	// A writer renumbers from 1 after a checkpoint: ref 1 moves from series
	// 0 to series 2 mid-window, and its samples follow the new binding.
	s = &parityStream{}
	s.def(1, 0)
	s.def(2, 1)
	for t := int64(1000); t <= 20000; t += 1000 {
		s.tick(t, 1, 2)
	}
	s.def(1, 2)
	s.def(2, 0) // series 0 again, under a new ref
	for t := int64(21000); t <= 40000; t += 1000 {
		s.tick(t, 1, 2)
	}
	streams["ref rebound mid-window"] = s

	// Refs never defined — inside the dense table, just past it and far
	// outside it — are skipped; their neighbours land.
	s = &parityStream{}
	s.def(3, 0)
	s.def(denseRefLimit+5, 1)
	for t := int64(1000); t <= 20000; t += 1000 {
		s.app(refSample{1, t, 1}, refSample{3, t, 2}, refSample{4, t, 3}, refSample{denseRefLimit + 5, t, 4}, refSample{1 << 40, t, 5})
	}
	streams["undefined refs"] = s

	// Samples at or before their series' newest are rejected, within one
	// record and across records, and the series goes on after them.
	s = &parityStream{}
	s.def(1, 0)
	s.def(2, 1)
	s.tick(5000, 1, 2)
	s.app(refSample{1, 4000, 9}, refSample{1, 5000, 9}, refSample{2, 6000, 9}, refSample{2, 6000, 8})
	s.tick(3000, 1, 2)
	s.app(refSample{1, 7000, 7}, refSample{1, 6500, 6}, refSample{1, 8000, 8})
	for t := int64(9000); t <= 30000; t += 1000 {
		s.tick(t, 2, 1)
	}
	streams["out-of-order samples rejected"] = s

	// One series' run crosses the window's end: its samples land in two
	// flushes, in order, with other series before and after it.
	s = &parityStream{}
	s.def(1, 0)
	s.def(2, 1)
	s.def(3, 2)
	for t := int64(1000); t <= 100000; t += 1000 {
		s.tick(t, 2, 3)
	}
	const run = replayWindow + 5000
	for i := 0; i < run; i += 997 {
		samples := make([]refSample, 0, 997)
		for j := i; j < min(i+997, run); j++ {
			samples = append(samples, refSample{ref: 1, t: int64(1000 + 500*j), v: float64(j % 101)})
		}
		s.app(samples...)
	}
	for t := int64(101000); t <= 200000; t += 1000 {
		s.tick(t, 3, 2)
	}
	streams["window boundary inside a run"] = s

	// Several segments: bindings carry across the first boundary, and a
	// later segment renumbers from 1 the way a writer does after a restart.
	s = &parityStream{}
	for i := range paritySeries {
		s.def(uint64(i+1), i)
	}
	for t := int64(1000); t <= 150000; t += 1000 {
		if t%50000 == 0 {
			s.cut()
		}
		if t == 100000 {
			s.def(1, 3)
			s.def(2, 2)
			s.def(3, 1)
			s.def(4, 0)
		}
		s.tick(t, 1, 2, 3, 4)
	}
	streams["multi-segment"] = s
	return streams
}

// TestWindowedReplayParity: Open's windowed, series-grouped, sharded replay
// builds the store that applying the same records one at a time builds —
// the same EncodeDump bytes and the same ref and rollup counters — with one
// shard and with two.
func TestWindowedReplayParity(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for name, s := range parityStreams() {
				t.Run(name, func(t *testing.T) { checkReplayParity(t, s) })
			}
		})
	}
}

func checkReplayParity(t *testing.T, s *parityStream) {
	opts := parityOptions()
	want := timeseries.NewStore(opts.ChunkSize, opts.StoreOptions...)
	mt := &mapRefTable{defs: make(map[uint64]refDef)}
	for _, payload := range s.payloads {
		mt.apply(t, want, payload)
	}

	dir := t.TempDir()
	for i, seg := range s.segments() {
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Crash()
	got := d.Store()
	if st := d.Stats(); st.ReplayedRecords != uint64(len(s.payloads)) || st.TruncatedTails != 0 {
		t.Fatalf("replayed %d of %d records, %d torn tails", st.ReplayedRecords, len(s.payloads), st.TruncatedTails)
	}
	if want.NumSamples() == 0 {
		t.Fatal("the stream landed no samples")
	}
	if g, w := EncodeDump(got.ChunkSize(), got.Dump()), EncodeDump(want.ChunkSize(), want.Dump()); !bytes.Equal(g, w) {
		t.Fatalf("windowed replay dumps %d bytes, record-at-a-time apply %d, and they differ", len(g), len(w))
	}
	gotRefs, wantRefs := got.RefStats(), want.RefStats()
	gotRefs.Epoch, wantRefs.Epoch = 0, 0
	if gotRefs != wantRefs {
		t.Fatalf("ref stats %+v, want %+v", gotRefs, wantRefs)
	}
	if g, w := got.RollupStats(), want.RollupStats(); !reflect.DeepEqual(g, w) {
		t.Fatalf("rollup stats %+v, want %+v", g, w)
	}
}

// TestShardsEndAtSeriesBoundaries: a flush cuts its shards only where a new
// series starts, so no series is appended from two goroutines at once.
func TestShardsEndAtSeriesBoundaries(t *testing.T) {
	var grouped []timeseries.RefEntry
	for _, ref := range []timeseries.SeriesRef{1, 1, 1, 2, 2, 3} {
		grouped = append(grouped, timeseries.RefEntry{Ref: ref})
	}
	for i, want := range []int{0, 3, 3, 3, 5, 5, 6} {
		if got := seriesStart(grouped, i); got != want {
			t.Errorf("seriesStart(%d) = %d, want %d", i, got, want)
		}
	}
}
