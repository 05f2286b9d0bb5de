package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/persist"
	"repro/internal/timeseries"
)

// gridGolden pins what the paper's artefact answers: for each seed, the hash
// gridHash takes of FullGrid's sweep over StandardExperiment(seed, 16, 8) —
// 36 answers on each, with 136 values on seed 42 and 137 on seed 7 —
// recorded at the commit before snapshot restore adopted sealed chunks, and
// the same under GOMAXPROCS 1 and 2.
var gridGolden = []struct {
	seed int64
	hash string
}{
	{42, "083d36b1964bdf31"},
	{7, "6da369c18f9bb508"},
}

// TestGridGolden: the full grid's answers over the standard experiment are
// the pinned ones, and the same again over two archives rebuilt from that
// run's store. One is its archive written as a snapshot payload and restored
// — which, with the simulation store's 1m and 1h tiers, adopts every sealed
// chunk and re-encodes every last one. The other is its samples logged
// through a DurableStore of the same chunk size and rollups, which is
// crashed and reopened by WAL replay alone: the replayed store cuts its own
// raw and tier chunks, and at the run's 60 s cadence every 1m window holds
// one sample. The grid's prescriptive capabilities actuate the simulated
// centre, so each further sweep runs on a further run of the seed, its store
// swapped for the rebuilt one. A different hash over the live store is a
// changed answer: re-pin it only with the old and new hash and the
// capability that moved named. A different hash over a rebuilt store is a
// restore or replay bug.
func TestGridGolden(t *testing.T) {
	for _, g := range gridGolden {
		got, answers, values := gridHash(t, StandardExperiment(g.seed, 16, 8).Ctx)
		t.Logf("seed %d: %d answers, %d values, hash %s", g.seed, answers, values, got)
		if got != g.hash {
			t.Errorf("seed %d: grid hash %s, want %s", g.seed, got, g.hash)
		}
		for _, rebuilt := range []struct {
			name  string
			build func(*testing.T, *timeseries.Store) *timeseries.Store
		}{{"restored snapshot", snapshotRestored}, {"WAL-recovered store", walRecovered}} {
			run := StandardExperiment(g.seed, 16, 8)
			run.Ctx.Store = rebuilt.build(t, run.DC.Store)
			if again, _, _ := gridHash(t, run.Ctx); again != got {
				t.Errorf("seed %d: grid hash over the %s %s, over the live store %s", g.seed, rebuilt.name, again, got)
			}
		}
	}
}

// gridGoldenLongWindow pins the same sweep over a 13-hour run's newest 12
// hours, the window odad's /analyze?window_hours=12 sweeps. From 12 hours on
// the predictive capabilities read through the planner, bucketed at 1 m,
// which the 8-hour goldens above never reach. Twelve hours back from the
// run's end starts 1 ms past a minute, so, as in odad, those reads plan raw;
// the same window widened back to a whole hour is served by the 1m tier and
// a raw tail. Recorded at the commit before SeriesValues folded its buckets
// straight into the result and failure-risk and node-anomaly built their
// feature matrices flat.
var gridGoldenLongWindow = []struct {
	seed    int64
	aligned bool // From rounded down to a whole hour
	hash    string
}{
	{42, false, "1d4ae3f00a1f64e1"},
	{42, true, "b5bede2151028fbe"},
	{7, false, "9ee210503b856414"},
	{7, true, "73ff488dbed73ca3"},
}

// TestGridGoldenLongWindow: the full grid over a 12-hour window of the
// standard experiment answers the pinned hashes, and the hour-aligned
// window's reads are served by the 1m tier.
func TestGridGoldenLongWindow(t *testing.T) {
	for _, g := range gridGoldenLongWindow {
		run := StandardExperiment(g.seed, 16, 13)
		ctx := *run.Ctx
		ctx.From = ctx.To - 12*3600*1000
		if g.aligned {
			ctx.From = ctx.From / timeseries.TierStep1h * timeseries.TierStep1h
		}
		got, answers, values := gridHash(t, &ctx)
		t.Logf("seed %d, from %d: %d answers, %d values, hash %s", g.seed, ctx.From, answers, values, got)
		if got != g.hash {
			t.Errorf("seed %d, from %d: grid hash %s, want %s", g.seed, ctx.From, got, g.hash)
		}
		if tier := run.DC.Store.RollupStats().Tiers[0]; g.aligned && (tier.Step != timeseries.TierStep1m || tier.Picks == 0) {
			t.Errorf("seed %d: the aligned sweep's reads never planned the 1m tier (%+v)", g.seed, tier)
		}
	}
}

// snapshotRestored writes live as a snapshot payload and restores it.
func snapshotRestored(t *testing.T, live *timeseries.Store) *timeseries.Store {
	t.Helper()
	chunkSize, dump, err := persist.DecodeDump(persist.EncodeDump(live.ChunkSize(), live.Dump()))
	if err != nil {
		t.Fatal(err)
	}
	sealed := 0
	for _, sd := range dump {
		sealed += max(len(sd.Chunks)-1, 0)
		for _, td := range sd.Tiers {
			sealed += max(len(td.Chunks)-1, 0)
		}
	}
	if sealed == 0 {
		t.Fatal("the snapshot holds no sealed chunk to adopt")
	}
	restored, err := timeseries.RestoreStore(chunkSize, dump)
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// walRecovered logs every raw sample of live, series by series in its
// first-ingest order, through a DurableStore with live's chunk size and rollup
// steps, crashes it, and returns the store a WAL replay with no snapshot
// rebuilds.
func walRecovered(t *testing.T, live *timeseries.Store) *timeseries.Store {
	t.Helper()
	var steps []int64
	for _, ts := range live.RollupStats().Tiers {
		steps = append(steps, ts.Step)
	}
	opts := persist.Options{ChunkSize: live.ChunkSize(), Fsync: persist.FsyncNever,
		StoreOptions: []timeseries.Option{timeseries.WithRollups(steps...)}}
	dir := t.TempDir()
	d, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var batch []timeseries.BatchEntry
	logged := 0
	for _, sd := range live.Dump() {
		batch = batch[:0]
		if err := live.Each(sd.ID, math.MinInt64, math.MaxInt64, func(sm metric.Sample) bool {
			batch = append(batch, timeseries.BatchEntry{ID: sd.ID, Kind: sd.Kind, Unit: sd.Unit, T: sm.T, V: sm.V})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n, err := d.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("%s: logged %d of %d samples: %v", sd.ID.Key(), n, len(batch), err)
		}
		logged += len(batch)
	}
	d.Crash()
	rec, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rec.Crash)
	if st := rec.Stats(); st.SnapshotLoaded || st.ReplayedSamples != uint64(logged) {
		t.Fatalf("recovery loaded a snapshot (%v) or replayed %d of %d samples", st.SnapshotLoaded, st.ReplayedSamples, logged)
	}
	// The run's 1m windows hold one sample each, so its tier chunks hold
	// more windows than the 15 a chunk of whole groups does.
	if tier := rec.Store().RollupStats().Tiers[0]; tier.Step != timeseries.TierStep1m || tier.Windows <= 15*tier.Chunks {
		t.Fatalf("the replayed %d ms tier holds %d windows in %d chunks", tier.Step, tier.Windows, tier.Chunks)
	} else {
		t.Logf("WAL-recovered store: %d samples, 1m tier %d windows in %d chunks", logged, tier.Windows, tier.Chunks)
	}
	return rec.Store()
}

// gridHash runs FullGrid over ctx and hashes, capability by capability in
// name order, each answer's name, Summary and Values (sorted by key, as
// float bits) and each declining capability's name and error text. It
// returns the hash and how many capabilities answered with how many values.
func gridHash(t *testing.T, ctx *oda.RunContext) (hash string, answers, values int) {
	t.Helper()
	g, err := FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	results, errs := g.RunAll(ctx)
	h := sha256.New()
	str := func(s string) {
		h.Write(binary.AppendUvarint(nil, uint64(len(s))))
		h.Write([]byte(s))
	}
	for _, name := range sortedKeys(results) {
		r := results[name]
		str(name)
		str(r.Summary)
		for _, k := range sortedKeys(r.Values) {
			str(k)
			h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(r.Values[k])))
		}
		values += len(r.Values)
	}
	for _, name := range sortedKeys(errs) {
		str(name)
		str(errs[name].Error())
	}
	return hex.EncodeToString(h.Sum(nil))[:16], len(results), values
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
