package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// corruptFile flips one bit in the middle of a file.
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x20
	return os.WriteFile(path, data, 0o644)
}

// copyDir copies every regular file of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornWriteRecoversExactPrefix is the randomized kill harness: it
// records the WAL byte offset and a full store dump after every operation,
// then simulates crashes that tear the log at arbitrary byte offsets — as
// a power cut mid-write() does — and asserts that recovery reconstructs
// exactly the longest operation prefix whose records fit below the tear,
// truncating the torn tail instead of failing.
func TestTornWriteRecoversExactPrefix(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		for _, rollups := range []bool{false, true} {
			name := policy.String()
			if rollups {
				name += "/rollups"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{ChunkSize: 8, Fsync: policy, SegmentSize: 1 << 30} // one segment: offsets stay file offsets
				if rollups {
					// Tier windows small enough to seal (and be retained)
					// many times within the harness' 30s of traffic, so the
					// dump comparison covers sealed tier chunks, open
					// accumulators and per-tier retention cuts.
					opts.StoreOptions = []timeseries.Option{timeseries.WithRollups(4000, 16000)}
				}
				d, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				segPath := filepath.Join(dir, segmentName(1))

				ids := []metric.ID{testID("power", "n01"), testID("temp", "n02")}
				kinds := []metric.Unit{metric.UnitWatt, metric.UnitCelsius}
				type checkpointState struct {
					offset int64
					dump   []timeseries.SeriesDump
				}
				// states[i] = WAL size and store state after i whole operations.
				// Every Resolve is its own state: each one logs a standalone
				// opDefine record, so tears between defines must recover to
				// the between-define store state.
				states := []checkpointState{{offset: int64(len(segMagic)), dump: d.Store().Dump()}}
				recordState := func() {
					fi, err := os.Stat(segPath)
					if err != nil {
						t.Fatal(err)
					}
					states = append(states, checkpointState{offset: fi.Size(), dump: d.Store().Dump()})
				}
				srefs := make([]timeseries.SeriesRef, len(ids))
				resolve := func() {
					for i, id := range ids {
						ref, err := d.Resolve(id, metric.Gauge, kinds[i])
						if err != nil {
							t.Fatal(err)
						}
						srefs[i] = ref
						recordState()
					}
				}
				resolve()
				const ops = 30
				for r := 0; r < ops; r++ {
					now := int64(1000 + r*1000)
					bumped := false
					switch {
					case r%10 == 9:
						if _, err := d.Retain(now - 6000); err != nil {
							t.Fatal(err)
						}
						bumped = true
					case rollups && r%10 == 5:
						if _, err := d.RetainTier(4000, now-8000); err != nil {
							t.Fatal(err)
						}
						bumped = true
					default:
						entries := []timeseries.RefEntry{
							{Ref: srefs[0], T: now, V: float64(r)},
							{Ref: srefs[1], T: now, V: float64(100 - r)},
						}
						if n, err := d.AppendRefs(entries); err != nil || n != 2 {
							t.Fatalf("op %d: %d, %v", r, n, err)
						}
					}
					recordState()
					if bumped {
						resolve() // refs outlive retention: still bound, no define logged
					}
				}
				d.Crash()
				full, err := os.ReadFile(segPath)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(full)) != states[len(states)-1].offset {
					t.Fatalf("offset bookkeeping broken: file %d bytes, recorded %d", len(full), states[len(states)-1].offset)
				}

				// Tear at every record boundary plus a fan of random offsets.
				offsets := map[int64]bool{0: true, int64(len(segMagic)): true, int64(len(full)): true}
				for _, st := range states {
					offsets[st.offset] = true
				}
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < 60; i++ {
					offsets[rng.Int63n(int64(len(full))+1)] = true
				}
				sorted := make([]int64, 0, len(offsets))
				for off := range offsets {
					sorted = append(sorted, off)
				}
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })

				for _, off := range sorted {
					crashDir := copyDir(t, dir)
					if err := os.Truncate(filepath.Join(crashDir, segmentName(1)), off); err != nil {
						t.Fatal(err)
					}
					re, err := Open(crashDir, opts)
					if err != nil {
						t.Fatalf("offset %d: recovery failed: %v", off, err)
					}
					// Expected state: the last operation fully below the tear.
					want := states[0]
					for _, st := range states {
						if st.offset <= off {
							want = st
						}
					}
					got := re.Store().Dump()
					if !reflect.DeepEqual(got, want.dump) {
						t.Fatalf("offset %d: recovered state is not the exact op prefix (want offset %d)", off, want.offset)
					}
					st := re.Stats()
					// A tear exactly on a record boundary leaves nothing to
					// truncate; so does truncation to zero (an empty file reads
					// as a clean, freshly created segment).
					expectTails := 1
					if off == 0 || want.offset == off {
						expectTails = 0
					}
					if st.TruncatedTails != expectTails {
						t.Fatalf("offset %d: want %d truncated tails, got %d", off, expectTails, st.TruncatedTails)
					}
					// Recovery truncated the torn tail: a second open must be
					// clean and land on the same state.
					re.Crash()
					re2, err := Open(crashDir, opts)
					if err != nil {
						t.Fatalf("offset %d: second recovery failed: %v", off, err)
					}
					if st2 := re2.Stats(); st2.TruncatedTails != 0 {
						t.Fatalf("offset %d: first recovery left a torn tail behind", off)
					}
					if !reflect.DeepEqual(re2.Store().Dump(), want.dump) {
						t.Fatalf("offset %d: recovery is not idempotent", off)
					}
					re2.Crash()
				}
			})
		}
	}
}

// TestAcknowledgedAppendsSurviveTear: under FsyncAlways every acknowledged
// operation was fsynced before its caller saw success, so a tear can only
// land inside the *unacknowledged* final record — never remove an
// acknowledged one. The offset bookkeeping above proves the equivalence:
// each op's records are wholly below the next op's offset. This test pins
// the ack ordering itself: the WAL sync watermark must cover every
// acknowledged append sequence.
func TestAcknowledgedAppendsSurviveTear(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for r := 0; r < 25; r++ {
		if err := d.Append(testID("p", "n"), metric.Gauge, metric.UnitWatt, int64(1000+r), float64(r)); err != nil {
			t.Fatal(err)
		}
		if synced, written := d.wal.syncSeq.Load(), d.wal.writeSeq.Load(); synced < written {
			t.Fatalf("append %d acknowledged before durable: synced=%d written=%d", r, synced, written)
		}
	}
}

// TestTornWriteInNonFinalSegment: damage in the middle of the log — a
// corrupt record in a segment that later segments follow — recovers to the
// prefix before it, and recovers to the same prefix every time. The segments
// after the gap are set aside, not replayed: a first Open that truncated the
// torn segment leaves it clean, so a second Open that still found them would
// replay them over the hole.
func TestTornWriteInNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkSize: 8, Fsync: FsyncNever, SegmentSize: 512}
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := d.Append(testID("power", "n01"), metric.Gauge, metric.UnitWatt, int64(1000+i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want the log spread over >= 3 segments, got %d", len(segs))
	}
	second, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	second[len(second)-1] ^= 0x01 // last byte of the segment's last record
	if err := os.WriteFile(segs[1].path, second, 0o644); err != nil {
		t.Fatal(err)
	}

	recoverOnce := func(pass string) ([]timeseries.SeriesDump, Stats) {
		re, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("%s Open: %v", pass, err)
		}
		defer re.Crash()
		return re.Store().Dump(), re.Stats()
	}
	first, st := recoverOnce("first")
	if st.TruncatedTails != 1 || st.LostSegments != len(segs)-2 {
		t.Fatalf("first Open: %d truncated tails, %d lost segments; want 1 and %d", st.TruncatedTails, st.LostSegments, len(segs)-2)
	}
	n := 0
	for _, c := range first[0].Chunks {
		n += c.Count
	}
	if n == 0 || n >= 200 {
		t.Fatalf("recovered %d samples, want a proper prefix of the 200 appended", n)
	}
	again, st := recoverOnce("second")
	if st.TruncatedTails != 0 || st.LostSegments != 0 {
		t.Fatalf("second Open found more to repair: %+v", st)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("recovery from a mid-log tear is not idempotent")
	}
	lost, err := filepath.Glob(filepath.Join(dir, "*.seg.lost"))
	if err != nil || len(lost) != len(segs)-2 {
		t.Fatalf("set-aside segments on disk: %v (%v), want %d", lost, err, len(segs)-2)
	}
}
