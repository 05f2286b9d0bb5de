package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// TestRestoreCanonical: RestoreStore adopts a sealed chunk's bytes as they
// are and re-encodes only each series' and each tier's last chunk, so a
// restore no longer holds every chunk to the bytes the encoder writes for
// its values. This test does, so that an encoder change is still caught:
// every chunk of every committed snapshot fixture and of the replayed fleet
// store is restored as the last — the only — chunk of a series of its own,
// which re-encodes it in its code and layout and requires its dump bytes
// back.
func TestRestoreCanonical(t *testing.T) {
	for _, f := range []struct {
		path    string
		version int
	}{{v5Snapshot, 5}, {v4OneSampleSnapshot, 4}, {v4Snapshot, 4}, {v3Snapshot, 3}} {
		t.Run(filepath.Base(f.path), func(t *testing.T) {
			data, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			chunkSize, dump, err := decodeSnapshot(data[len(snapMagic):len(data)-4], f.version)
			if err != nil {
				t.Fatal(err)
			}
			checkCanonical(t, chunkSize, dump)
		})
	}
	t.Run("fleet", func(t *testing.T) {
		if testing.Short() {
			t.Skip("replays 1.5M samples")
		}
		store := replayFleet(t)
		checkCanonical(t, store.ChunkSize(), store.Dump())
	})
}

// checkCanonical restores every chunk of dump as the one chunk of a series
// named for it, raw or in a tier of its own step, and requires the restore
// to succeed: each such chunk is a last chunk, re-encoded and compared.
func checkCanonical(t *testing.T, chunkSize int, dump []timeseries.SeriesDump) {
	t.Helper()
	var each []timeseries.SeriesDump
	one := func(sd timeseries.SeriesDump, list string, k int) timeseries.SeriesDump {
		return timeseries.SeriesDump{
			ID:   metric.ID{Name: "chunk", Labels: metric.NewLabels("series", sd.ID.Key(), "at", fmt.Sprintf("%s/%d", list, k))},
			Kind: sd.Kind,
			Unit: sd.Unit,
		}
	}
	tiers := 0
	for _, sd := range dump {
		for k, cd := range sd.Chunks {
			c := one(sd, "raw", k)
			c.Chunks = []timeseries.ChunkDump{cd}
			each = append(each, c)
		}
		for _, td := range sd.Tiers {
			for k, cd := range td.Chunks {
				c := one(sd, fmt.Sprintf("tier%d", td.Step), k)
				c.Tiers = []timeseries.TierDump{{Step: td.Step, Chunks: []timeseries.ChunkDump{cd}}}
				each = append(each, c)
				tiers++
			}
		}
	}
	if tiers == 0 || len(each) == tiers {
		t.Fatalf("%d chunks, %d of them tier chunks: want both kinds", len(each), tiers)
	}
	if _, err := timeseries.RestoreStore(chunkSize, each); err != nil {
		t.Fatalf("a chunk the encoder does not write for its values: %v", err)
	}
	t.Logf("%d chunks re-encoded, %d of them tier chunks", len(each), tiers)
}
