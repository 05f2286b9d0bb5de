package timeseries

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/metric"
)

// tierFuzzChunkSize makes a tier chunk two window groups, so a handful of
// windows rolls chunks over.
const tierFuzzChunkSize = 2 * rollupStride

// tierFuzzGroup is one window as FuzzTierGroupRoundTrip parses it: how many
// windows it lies past the previous one (0 = the next) and eight raw column
// bit patterns.
type tierFuzzGroup struct {
	gap  int64
	vals [rollupStride]float64
}

// tierGroupsFromBytes parses fuzz input: 8 bytes of signed first timestamp
// (kept under 2^50 in magnitude), 2 bytes of tier step (+1), then 66 bytes per
// window — a 2-byte gap and rollupStride float64 bit patterns.
func tierGroupsFromBytes(data []byte) (t0, step int64, groups []tierFuzzGroup) {
	if len(data) < 10 {
		return 0, 1, nil
	}
	t0 = int64(binary.BigEndian.Uint64(data[:8])) >> 13
	step = 1 + int64(binary.BigEndian.Uint16(data[8:10]))
	for data = data[10:]; len(data) >= 2+8*rollupStride; data = data[2+8*rollupStride:] {
		g := tierFuzzGroup{gap: int64(binary.BigEndian.Uint16(data[:2]))}
		for col := range g.vals {
			g.vals[col] = math.Float64frombits(binary.BigEndian.Uint64(data[2+8*col:]))
		}
		groups = append(groups, g)
	}
	return t0, step, groups
}

// tierFuzzInput is the inverse of tierGroupsFromBytes, for the seeds.
func tierFuzzInput(t0 int64, step uint16, groups []tierFuzzGroup) []byte {
	out := binary.BigEndian.AppendUint64(nil, uint64(t0)<<13)
	out = binary.BigEndian.AppendUint16(out, step-1)
	for _, g := range groups {
		out = binary.BigEndian.AppendUint16(out, uint16(g.gap))
		for _, v := range g.vals {
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// tierFuzzSeeds are the committed corpus (testdata/fuzz/FuzzTierGroupRoundTrip,
// rewritten from here by GEN_CORPUS=1 go test -run TestGenTierCorpus).
func tierFuzzSeeds() map[string][]byte {
	bitsOf := math.Float64frombits
	// What a regular cadence seals: count and both offsets constant, values
	// drifting, five windows (three chunks).
	var regular []tierFuzzGroup
	for i := 0; i < 5; i++ {
		v := 300 + float64(i)*0.1
		regular = append(regular, tierFuzzGroup{vals: [rollupStride]float64{6, 6 * v, v - 1, v + 1, 0, v, 50_000, v + 0.5}})
	}
	// Every float64 the XOR coder treats specially, in every column, with
	// gaps between the windows and a start before the epoch.
	odd := []float64{math.NaN(), bitsOf(0x7FF8_0000_DEAD_BEEF), bitsOf(0xFFF0_0000_0000_0001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 5e-324, bitsOf(0x000F_FFFF_FFFF_FFFF), math.MaxFloat64, 1, bitsOf(^uint64(0))}
	var weird []tierFuzzGroup
	for i := 0; i < 6; i++ {
		g := tierFuzzGroup{gap: int64(i * i * 1000)}
		for col := range g.vals {
			g.vals[col] = odd[(i*5+col*7)%len(odd)]
		}
		weird = append(weird, g)
	}
	return map[string][]byte{
		"seed-regular-cadence": tierFuzzInput(1_700_000_040_000, 60_000, regular),
		"seed-odd-bits-gaps":   tierFuzzInput(-86_400_001, 1000, weird),
		"seed-one-window":      tierFuzzInput(-1, 7, regular[:1]),
		"seed-constant":        tierFuzzInput(0, 1, []tierFuzzGroup{regular[0], regular[0], regular[0], regular[0]}),
	}
}

func TestGenTierCorpus(t *testing.T) {
	if os.Getenv("GEN_CORPUS") == "" {
		t.Skip("set GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTierGroupRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range tierFuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.QuoteToASCII(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzTierGroupRoundTrip drives arbitrary window groups — any eight float64
// bit patterns, any non-negative gap between windows, window starts either
// side of the epoch — through the rollup tier's group codec the way seal does
// (tierState.appendWindow, chunks of two groups) and requires: every record
// decodes bit for bit with the stamp its window and column give it; the
// planner's window decoder finds every window start; a dump restores to the
// same bytes; and the restored tier, predictor included, carries on exactly
// like the live one.
func FuzzTierGroupRoundTrip(f *testing.F) {
	f.Add([]byte{})
	for _, seed := range tierFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		t0, step, groups := tierGroupsFromBytes(data)
		if len(groups) == 0 {
			return
		}
		s := NewStore(tierFuzzChunkSize, WithRollups(step))
		id := metric.ID{Name: "fuzz"}
		ss := s.getOrCreate(id.Key(), id, metric.Gauge, metric.UnitWatt)
		ts := ss.tiers[0]
		win := floorDiv(t0, step)
		var wins []int64
		for _, g := range groups {
			win += g.gap
			if err := ts.appendWindow(tierChunkCap(s.chunkSize), win, &g.vals); err != nil {
				t.Fatalf("appendWindow(%d): %v", win, err)
			}
			wins = append(wins, win)
			win++
		}
		if want := (len(groups) + 1) / 2; len(ts.chunks) != want {
			t.Fatalf("%d windows in %d chunks, want %d", len(groups), len(ts.chunks), want)
		}

		// Record by record, chunk by chunk.
		i := 0
		for _, c := range ts.chunks {
			var it ChunkIter
			it.reset(c.w.bytes(), c.Count(), true)
			for it.Next() {
				sm := it.At()
				g, col := i/rollupStride, i%rollupStride
				want := groups[g].vals[col]
				if sm.T != wins[g]*rollupStride+int64(col) || math.Float64bits(sm.V) != math.Float64bits(want) {
					t.Fatalf("record %d: got (%d, %016x), want (%d, %016x)", i, sm.T, math.Float64bits(sm.V), wins[g]*rollupStride+int64(col), math.Float64bits(want))
				}
				i++
			}
			if err := it.Err(); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		if i != len(groups)*rollupStride {
			t.Fatalf("decoded %d of %d records", i, len(groups)*rollupStride)
		}

		// Window by window, the way a planned query reads them.
		first, last, ok := ts.sealedRange()
		if !ok || first != wins[0]*step || last != wins[len(wins)-1]*step {
			t.Fatalf("sealedRange = %d, %d, %v; want %d, %d", first, last, ok, wins[0]*step, wins[len(wins)-1]*step)
		}
		cur := s.newTierCursor(ss, ts, first, last+step)
		var w Partial
		for g := range groups {
			start, ok, err := nextRollupPoint(cur, step, &w)
			if err != nil || !ok || start != wins[g]*step {
				t.Fatalf("window %d: start %d, ok %v, err %v; want start %d", g, start, ok, err, wins[g]*step)
			}
			if math.Float64bits(w.Sum) != math.Float64bits(groups[g].vals[colSum]) || math.Float64bits(w.LastV) != math.Float64bits(groups[g].vals[colLastV]) {
				t.Fatalf("window %d: sum/lastV %x/%x", g, math.Float64bits(w.Sum), math.Float64bits(w.LastV))
			}
		}
		if _, ok, err := nextRollupPoint(cur, step, &w); ok || err != nil {
			t.Fatalf("past the last window: ok %v, err %v", ok, err)
		}
		cur.Close()

		// Dump, restore, dump; then both take one more window.
		dump := s.Dump()
		re, err := RestoreStore(s.ChunkSize(), dump)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if !reflect.DeepEqual(re.Dump(), dump) {
			t.Fatal("restored dump differs")
		}
		more := groups[0].vals
		for _, st := range []*Store{s, re} {
			if err := st.lookup(id.Key()).tiers[0].appendWindow(tierChunkCap(st.chunkSize), win+3, &more); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(re.Dump(), s.Dump()) {
			t.Fatal("restored tier continues differently from the live one")
		}
	})
}

// tierGateStreams are the streams TestTierSizeGate bounds: the golden test's
// walk, a counter and a constant, 25 hours at a 10 s cadence.
func tierGateStreams() map[string][]metric.Sample {
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	return map[string][]metric.Sample{
		"walk":     seededStream(1, 9000, func(rng *rand.Rand, v float64) float64 { return quant(v + (rng.Float64()-0.5)*8) }),
		"counter":  seededStream(2, 9000, func(rng *rand.Rand, v float64) float64 { return quant(v + rng.Float64()*4) }),
		"constant": seededStream(3, 9000, func(_ *rand.Rand, v float64) float64 { return v }),
	}
}

// TestTierSizeGate keeps the rollup tier a compressor. The 1m tier over the
// golden walk took 77 B/window when a window's eight columns were XOR-ed into
// one another — more than the 64 B they occupy uncompressed; column prediction
// brought it under 44, and a constant series to a few bits a column. On none
// of these streams may either tier take more than the eight bytes a record
// holds plus a header per chunk.
func TestTierSizeGate(t *testing.T) {
	// The column predictors live in tierState, one set per open tier: a Chunk
	// is allocated per 120 records and must not carry them.
	if got := unsafe.Sizeof(Chunk{}); got > 96 {
		t.Errorf("Chunk is %d bytes, was 96", got)
	}
	perWindow := map[string]float64{"walk": 44, "counter": 44, "constant": 12}
	for name, samples := range tierGateStreams() {
		s := NewStore(0, WithRollups(TierStep1m, TierStep1h))
		id := metric.ID{Name: name}
		for _, sm := range samples {
			if err := s.Append(id, metric.Gauge, metric.UnitWatt, sm.T, sm.V); err != nil {
				t.Fatal(err)
			}
		}
		tiers := s.RollupStats().Tiers
		dump := s.Dump()[0]
		for i, st := range tiers {
			if st.Windows < 24 {
				t.Fatalf("%s: tier %d sealed %d windows", name, st.Step, st.Windows)
			}
			chunks, bytes := len(dump.Tiers[i].Chunks), 0
			for _, cd := range dump.Tiers[i].Chunks {
				bytes += len(cd.Data)
			}
			if bytes != st.Bytes {
				t.Fatalf("%s: tier %d: RollupStats counts %d bytes, the dump holds %d", name, st.Step, st.Bytes, bytes)
			}
			if limit := 8*rollupStride*st.Windows + 16*chunks; st.Bytes > limit {
				t.Errorf("%s: tier %d expands: %d bytes for %d windows in %d chunks (limit %d)", name, st.Step, st.Bytes, st.Windows, chunks, limit)
			}
		}
		if got := float64(tiers[0].Bytes) / float64(tiers[0].Windows); got > perWindow[name] {
			t.Errorf("%s: 1m tier takes %.1f B/window, gate %.0f", name, got, perWindow[name])
		} else {
			t.Logf("%s: 1m tier %.1f B/window, 1h tier %.1f", name, got, float64(tiers[1].Bytes)/float64(tiers[1].Windows))
		}
	}
}

// TestRestoreRefusesInterleavedTierChunks: a dump whose tier chunks are in the
// layout before snapshot v3 — a window's columns stamped winStart*8+col in
// milliseconds, absolute time columns, each record XOR-ed against the record
// before it — reaches RestoreStore with no magic in front of it when it comes
// from a replication or bootstrap peer. It must be refused, not loaded as other
// windows: read against per-column predictors the stream falls out of step
// with its own control bits, and restoreChunk's order and re-encode checks
// catch what comes out.
func TestRestoreRefusesInterleavedTierChunks(t *testing.T) {
	s := NewStore(0, WithRollups(TierStep1m))
	id := metric.ID{Name: "walk"}
	for _, sm := range tierGateStreams()["walk"][:2000] {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, sm.T, sm.V); err != nil {
			t.Fatal(err)
		}
	}
	dump := s.Dump()
	if _, err := RestoreStore(s.ChunkSize(), dump); err != nil {
		t.Fatalf("restore of the current layout: %v", err)
	}
	// Re-encode the same windows the old way: the plain chunk codec over the
	// interleaved records.
	ss := s.lookup(id.Key())
	ts := ss.tiers[0]
	first, last, _ := ts.sealedRange()
	cur := s.newTierCursor(ss, ts, first, last+ts.step)
	defer cur.Close()
	var old []*Chunk
	var w Partial
	for {
		start, ok, err := nextRollupPoint(cur, ts.step, &w)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		vals := [rollupStride]float64{float64(w.Count), w.Sum, w.Min, w.Max, float64(w.FirstT), w.FirstV, float64(w.LastT), w.LastV}
		for col, v := range vals {
			var c *Chunk
			old, c = nextChunk(old, tierChunkCap(s.chunkSize), start*rollupStride+int64(col))
			if err := c.Append(start*rollupStride+int64(col), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(old) < 2 {
		t.Fatalf("only %d old-layout chunks", len(old))
	}
	dump[0].Tiers[0].Chunks = dumpChunks(old)
	_, err := RestoreStore(s.ChunkSize(), dump)
	if err == nil || !strings.Contains(err.Error(), "[tier 60000]") {
		t.Fatalf("RestoreStore of interleaved tier chunks = %v, want a tier chunk error", err)
	}
	t.Log(err)
}
