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
// windows it lies past the previous one (0 = the next), eight raw column bit
// patterns, and whether the series' raw chunk is Gorilla-coded (which a tier
// chunk opening on the window takes its value columns' code from).
type tierFuzzGroup struct {
	gap     int64
	vals    [rollupStride]float64
	gorilla bool
}

// tierGroupsFromBytes parses fuzz input: 8 bytes of signed first timestamp
// (kept under 2^50 in magnitude), 2 bytes of tier step (+1), then 66 bytes per
// window — a 2-byte gap, whose top bit is the gorilla flag, and rollupStride
// float64 bit patterns.
func tierGroupsFromBytes(data []byte) (t0, step int64, groups []tierFuzzGroup) {
	if len(data) < 10 {
		return 0, 1, nil
	}
	t0 = int64(binary.BigEndian.Uint64(data[:8])) >> 13
	step = 1 + int64(binary.BigEndian.Uint16(data[8:10]))
	for data = data[10:]; len(data) >= 2+8*rollupStride; data = data[2+8*rollupStride:] {
		gap := binary.BigEndian.Uint16(data[:2])
		g := tierFuzzGroup{gap: int64(gap & 0x7FFF), gorilla: gap&0x8000 != 0}
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
		gap := uint16(g.gap)
		if g.gorilla {
			gap |= 0x8000
		}
		out = binary.BigEndian.AppendUint16(out, gap)
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
	// Windows of one sample, as a tier at the raw cadence seals them, the lone
	// sample a decimal, a NaN payload, -0 or ±Inf; among them a window of six
	// samples, and one of count 1 whose max is not its sum, which is refused.
	lone := []float64{20.5, bitsOf(0x7FF8_0000_DEAD_BEEF), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 20.5, math.NaN(), 0}
	var single []tierFuzzGroup
	for i, v := range lone {
		off := float64(30_000 * (i % 2))
		single = append(single, tierFuzzGroup{vals: [rollupStride]float64{1, v, v, v, off, v, off, v}})
		if i == 2 {
			single = append(single, regular[1], tierFuzzGroup{gap: 2, vals: [rollupStride]float64{1, 7, 7, 8, 0, 7, 0, 7}})
		}
	}
	// The same windows beside a Gorilla-coded raw chunk: the tier columns
	// Gorilla's XOR codes, as every v3 snapshot's tiers are.
	gorilla := func(groups []tierFuzzGroup) []tierFuzzGroup {
		out := append([]tierFuzzGroup(nil), groups...)
		for i := range out {
			out[i].gorilla = true
		}
		return out
	}
	return map[string][]byte{
		"seed-regular-cadence":            tierFuzzInput(1_700_000_040_000, 60_000, regular),
		"seed-odd-bits-gaps":              tierFuzzInput(-86_400_001, 1000, weird),
		"seed-one-window":                 tierFuzzInput(-1, 7, regular[:1]),
		"seed-constant":                   tierFuzzInput(0, 1, []tierFuzzGroup{regular[0], regular[0], regular[0], regular[0]}),
		"seed-regular-cadence-gorilla":    tierFuzzInput(1_700_000_040_000, 60_000, gorilla(regular)),
		"seed-odd-bits-gaps-gorilla":      tierFuzzInput(-86_400_001, 1000, gorilla(weird)),
		"seed-one-sample-windows":         tierFuzzInput(1_700_000_040_000, 60_000, single),
		"seed-one-sample-windows-gorilla": tierFuzzInput(1_700_000_040_000, 60_000, gorilla(single)),
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

// disagrees reports whether a window has count 1 but is not what the fold
// seals for one sample — its min, max, first and last value the sum's bits,
// its last offset the first's — which appendWindow must refuse.
func disagrees(vals *[rollupStride]float64) bool {
	if vals[colCount] != 1 {
		return false
	}
	b := func(col int) uint64 { return math.Float64bits(vals[col]) }
	for _, col := range []int{colMin, colMax, colFirstV, colLastV} {
		if b(col) != b(colSum) {
			return true
		}
	}
	return b(colLastT) != b(colFirstT)
}

// FuzzTierGroupRoundTrip drives arbitrary window groups — any eight float64
// bit patterns, any non-negative gap between windows, window starts either
// side of the epoch — through the rollup tier's group codec the way seal does
// (tierState.appendWindow, chunks of two groups). A window of count 1 whose
// other columns disagree with its sample (disagrees) must be refused and
// leave the tier as it was; of every other window, one-sample windows in
// their one-value layout included, it requires: every record decodes bit for
// bit with the stamp its window and column give it; the planner's window
// decoder finds every window start; a dump restores to the same bytes; and
// the restored tier, predictor included, carries on exactly like the live
// one.
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
		var kept []tierFuzzGroup
		for _, g := range groups {
			win += g.gap
			refuse := disagrees(&g.vals)
			var before []SeriesDump
			if refuse {
				before = s.Dump()
			}
			err := ts.appendWindow(tierChunkCap(s.chunkSize), win, &g.vals, !g.gorilla)
			switch {
			case refuse:
				if err == nil {
					t.Fatalf("appendWindow(%d) took a window of count 1 whose columns disagree: %x", win, g.vals)
				}
				if !reflect.DeepEqual(s.Dump(), before) {
					t.Fatalf("a refused window changed the tier")
				}
			case err != nil:
				t.Fatalf("appendWindow(%d): %v", win, err)
			default:
				wins = append(wins, win)
				kept = append(kept, g)
			}
			win++
		}
		if groups = kept; len(groups) == 0 {
			return
		}
		for _, c := range ts.chunks {
			if !c.oneSample {
				t.Fatal("a new tier chunk is not in the one-sample window layout")
			}
		}
		if want := (len(groups) + 1) / 2; len(ts.chunks) != want {
			t.Fatalf("%d windows in %d chunks, want %d", len(groups), len(ts.chunks), want)
		}

		// Record by record, chunk by chunk.
		i := 0
		for _, c := range ts.chunks {
			var it ChunkIter
			it.reset(c.w.bytes(), c.Count(), true, c.dec, c.oneSample)
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
			if err := st.lookup(id.Key()).tiers[0].appendWindow(tierChunkCap(st.chunkSize), win+3, &more, true); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(re.Dump(), s.Dump()) {
			t.Fatal("restored tier continues differently from the live one")
		}
	})
}

// tierGateStreams are the streams TestTierSizeGate bounds: the golden test's
// walk, a counter and a constant, 25 hours at a 10 s cadence, and the walk's
// first 1500 values a minute apart, the cadence of the simulated centre's
// sensors, where every 1m window holds one sample.
func tierGateStreams() map[string][]metric.Sample {
	quant := func(v float64) float64 { return math.Round(v*10) / 10 }
	walk := seededStream(1, 9000, func(rng *rand.Rand, v float64) float64 { return quant(v + (rng.Float64()-0.5)*8) })
	walk60 := make([]metric.Sample, 1500)
	for i := range walk60 {
		walk60[i] = metric.Sample{T: walk[0].T + int64(i)*60_000, V: walk[i].V}
	}
	return map[string][]metric.Sample{
		"walk":     walk,
		"counter":  seededStream(2, 9000, func(rng *rand.Rand, v float64) float64 { return quant(v + rng.Float64()*4) }),
		"constant": seededStream(3, 9000, func(_ *rand.Rand, v float64) float64 { return v }),
		"walk-60s": walk60,
	}
}

// TestTierSizeGate keeps the rollup tier a compressor. The 1m tier over the
// golden walk took 77 B/window when a window's eight columns were XOR-ed into
// one another — more than the 64 B they occupy uncompressed; column prediction
// brought it under 44 (39.5), and a constant series to a few bits a column
// (4.7); the decimal column code to 12.0, 13.4 and 3.7 B/window for the walk,
// the counter and the constant. The walk a sample a minute took 8.95
// B/window, every one-sample window coding its sample five times; coded once,
// 2.9. On none of these streams may either tier take more than the eight
// bytes a record holds plus a header per chunk.
func TestTierSizeGate(t *testing.T) {
	// The coder state lives with the chunk list's owner — the column
	// predictors and the timestamp delta in tierState, the raw column's in
	// storedSeries — one set per open chunk: a Chunk is allocated per 120
	// records and must carry none of it.
	if got := unsafe.Sizeof(Chunk{}); got > 64 {
		t.Errorf("Chunk is %d bytes, was 64", got)
	}
	perWindow := map[string]float64{"walk": 12.5, "counter": 14, "constant": 4, "walk-60s": 3}
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
			t.Errorf("%s: 1m tier takes %.1f B/window, gate %.1f", name, got, perWindow[name])
		} else {
			t.Logf("%s: 1m tier %.1f B/window, 1h tier %.1f", name, got, float64(tiers[1].Bytes)/float64(tiers[1].Windows))
		}
	}
}

// TestRawSizeGate is TestTierSizeGate for raw chunks: each golden stream,
// appended to a store, may take no more than the same chunks Gorilla-coded,
// and the walk, the counter and the constant no more than their gate per
// sample — 6.74, 6.76 and 0.43 B/sample Gorilla-coded, 1.37, 1.37 and 0.37
// in the decimal code.
func TestRawSizeGate(t *testing.T) {
	perSample := map[string]float64{"walk": 1.4, "counter": 1.4, "constant": 0.4}
	for _, g := range goldenStreams() {
		s := NewStore(0)
		id := metric.ID{Name: g.name}
		for _, sm := range g.samples {
			if err := s.Append(id, metric.Gauge, metric.UnitWatt, sm.T, sm.V); err != nil {
				t.Fatal(err)
			}
		}
		gorilla := 0
		for _, c := range s.lookup(id.Key()).chunks {
			gc := newRawChunk(false)
			for it := c.Iter(); it.Next(); {
				if err := gc.Append(it.t, it.v); err != nil {
					t.Fatal(err)
				}
			}
			gorilla += gc.Bytes()
		}
		got := s.CompressedBytes()
		if got > gorilla {
			t.Errorf("%s: raw chunks take %d bytes, Gorilla-coded %d", g.name, got, gorilla)
		}
		if gate, ok := perSample[g.name]; ok && float64(got)/float64(len(g.samples)) > gate {
			t.Errorf("%s: raw chunks take %.2f B/sample, gate %.2f", g.name, float64(got)/float64(len(g.samples)), gate)
		}
	}
}

// TestRestoreRefusesInterleavedTierChunks: a dump whose tier chunks are in the
// layout before snapshot v3 — a window's columns stamped winStart*8+col in
// milliseconds, absolute time columns, each record XOR-ed against the record
// before it — reaches RestoreStore with no magic in front of it when it comes
// from a replication or bootstrap peer. It must be refused, not loaded as other
// windows: read against per-column predictors the stream falls out of step
// with its own control bits, and restoreChunk's order and alignment checks
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
	var x colState
	var delta int64
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
			if c.count == 0 {
				x = colState{}
			}
			if err := c.append(start*rollupStride+int64(col), v, &delta, &x, nil); err != nil {
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

// TestRestoreRefusesOneSampleRawChunk: the one-sample window layout belongs
// to tier chunks; a dump that tags a raw chunk with it is refused, not
// decoded as something else.
func TestRestoreRefusesOneSampleRawChunk(t *testing.T) {
	s := NewStore(0)
	id := metric.ID{Name: "power"}
	for i := 0; i < 10; i++ {
		if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*60_000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dump := s.Dump()
	dump[0].Chunks[0].OneSample = true
	if _, err := RestoreStore(s.ChunkSize(), dump); err == nil || !strings.Contains(err.Error(), "one-sample") {
		t.Fatalf("RestoreStore of a raw chunk in the one-sample window layout = %v, want a refusal", err)
	}
}
