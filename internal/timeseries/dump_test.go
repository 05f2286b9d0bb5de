package timeseries

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metric"
)

func TestDumpRestoreRoundTrip(t *testing.T) {
	s := NewStore(8)
	ids := []metric.ID{sid("power", "n0"), sid("power", "n1"), sid("temp", "n0")}
	for i := 0; i < 57; i++ { // deliberately not a chunk multiple: partial last chunk
		for j, id := range ids {
			if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(1000+i*250), float64(i*3+j)+math.Sin(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Downsample(ids[2], 1000); err != nil {
		t.Fatal(err)
	}
	dump := s.Dump()
	re, err := RestoreStore(s.ChunkSize(), dump)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !reflect.DeepEqual(re.Dump(), dump) {
		t.Fatal("restored store dump diverged from original")
	}
	// Restored store answers queries identically.
	for _, id := range ids {
		want, err := s.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.Query(id, 0, 1<<60)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: query after restore diverged", id)
		}
	}
	// And keeps accepting appends where the original left off.
	if err := re.Append(ids[0], metric.Gauge, metric.UnitWatt, 1<<40, 1); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	if err := re.Append(ids[0], metric.Gauge, metric.UnitWatt, 1, 1); err == nil {
		t.Fatal("restored store lost its last-timestamp watermark")
	}
}

func TestRestoreStoreRejectsCorruptChunk(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 20; i++ {
		if err := s.Append(sid("power", "n0"), metric.Gauge, metric.UnitWatt, int64(1000+i*250), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	dump := s.Dump()
	dump[0].Chunks[0].Data[2] ^= 0x10
	if _, err := RestoreStore(s.ChunkSize(), dump); err == nil {
		t.Fatal("RestoreStore accepted a corrupted chunk bitstream")
	}
}

// TestScanSeriesParallelMatchesSequential: the whole-store walks (NumSamples,
// CompressedBytes, Snapshot, Retain) give the same answers to callers running
// in parallel — a /stats poll beside a replica status — as to one caller
// alone, and those answers are the ones the appended data implies.
func TestScanSeriesParallelMatchesSequential(t *testing.T) {
	build := func() *Store {
		s := NewStore(16)
		for n := 0; n < 300; n++ {
			id := metric.ID{Name: "power", Labels: metric.NewLabels("node", string(rune('a'+n%26))+string(rune('0'+n/26)))}
			for i := 0; i < 33; i++ {
				if err := s.Append(id, metric.Gauge, metric.UnitWatt, int64(i)*1000, float64(n+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s
	}
	s := build()
	seqSamples, seqBytes := s.NumSamples(), s.CompressedBytes()
	seqSnap := s.Snapshot("power", nil)
	if seqSamples != 300*33 {
		t.Fatalf("NumSamples = %d, want %d", seqSamples, 300*33)
	}
	if len(seqSnap) != 300 {
		t.Fatalf("Snapshot holds %d entries, want 300", len(seqSnap))
	}
	for i, e := range seqSnap {
		if i > 0 && seqSnap[i-1].ID.Key() >= e.ID.Key() {
			t.Fatalf("Snapshot not ordered by key at %d", i)
		}
		if e.Sample.T != 32_000 {
			t.Fatalf("Snapshot entry %s is not the latest sample: t=%d", e.ID.Key(), e.Sample.T)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := s.NumSamples(); n != seqSamples {
				t.Errorf("parallel NumSamples %d != sequential %d", n, seqSamples)
			}
			if b := s.CompressedBytes(); b != seqBytes {
				t.Errorf("parallel CompressedBytes %d != sequential %d", b, seqBytes)
			}
			if snap := s.Snapshot("power", nil); !reflect.DeepEqual(snap, seqSnap) {
				t.Errorf("parallel Snapshot diverged: %d vs %d entries", len(snap), len(seqSnap))
			}
		}()
	}
	wg.Wait()

	// Chunks hold 16 samples: Retain(20 s) retires each series' first chunk
	// (t = 0…15 s) and nothing else, the same on every build.
	other := build()
	dropped := s.Retain(20_000)
	if dropped != 300*16 {
		t.Fatalf("Retain dropped %d, want %d", dropped, 300*16)
	}
	if n := other.Retain(20_000); n != dropped {
		t.Fatalf("second build's Retain dropped %d, first dropped %d", n, dropped)
	}
	if !reflect.DeepEqual(other.Dump(), s.Dump()) {
		t.Fatal("identical stores diverged after retention")
	}
}
