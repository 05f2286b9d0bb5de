package persist

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// TestChaosScheduledCrashRecovery extends the kill-and-recover matrix with
// crashes at chaos-scheduled points: a seeded schedule picks operation
// indices mid-campaign and the store is hard-killed there — with ingest,
// rollup folds and retention all in flight in the surrounding op mix — then
// reopened and driven on. Under FsyncAlways every acknowledged operation
// must survive, so after each scheduled crash the recovered store has to be
// byte-identical to the dump taken at the crash instant, and the campaign
// continues on the recovered store as the chaos harness does.
func TestChaosScheduledCrashRecovery(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// Small tiers so the 80-op campaign folds, seals and retains
			// rollup windows many times: crashes land with open per-tier
			// accumulators that recovery must rebuild exactly.
			opts := Options{
				ChunkSize:    8,
				Fsync:        FsyncAlways,
				SegmentSize:  1 << 20,
				StoreOptions: []timeseries.Option{timeseries.WithRollups(4000, 16000)},
			}
			d, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			const ops = 80
			// The chaos schedule: 4 distinct crash points strictly inside
			// the campaign, seeded so every seed exercises different
			// in-flight state.
			crashAt := map[int]bool{}
			for len(crashAt) < 4 {
				crashAt[1+rng.Intn(ops-2)] = true
			}

			ids := []metric.ID{testID("power", "n01"), testID("temp", "n02"), testID("power", "n03")}
			recoveries := 0
			for r := 0; r < ops; r++ {
				now := int64(1000 + r*1000)
				switch {
				case r%9 == 7:
					if _, err := d.Retain(now - 12000); err != nil {
						t.Fatalf("op %d retain: %v", r, err)
					}
				case r%9 == 8:
					if _, err := d.RetainTier(4000, now-16000); err != nil {
						t.Fatalf("op %d retain-tier: %v", r, err)
					}
				default:
					batch := make([]timeseries.BatchEntry, 0, len(ids))
					for i, id := range ids {
						batch = append(batch, timeseries.BatchEntry{
							ID: id, Kind: metric.Gauge, Unit: metric.UnitWatt,
							T: now, V: float64(r*10 + i),
						})
					}
					if n, err := d.AppendBatch(batch); err != nil || n != len(batch) {
						t.Fatalf("op %d append: %d, %v", r, n, err)
					}
				}

				if crashAt[r] {
					want := d.Store().Dump()
					d.Crash()
					re, err := Open(dir, opts)
					if err != nil {
						t.Fatalf("op %d: recovery failed: %v", r, err)
					}
					if got := re.Store().Dump(); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: recovered store is not byte-identical to the crash instant", r)
					}
					if st := re.Stats(); st.TruncatedTails != 0 {
						// FsyncAlways acked every op; nothing may be torn.
						t.Fatalf("op %d: recovery truncated %d tails under FsyncAlways", r, st.TruncatedTails)
					}
					d = re
					recoveries++
				}
			}
			if recoveries != 4 {
				t.Fatalf("schedule executed %d crashes, want 4", recoveries)
			}
			// The final store still closes cleanly and recovers replay-free.
			want := d.Store().Dump()
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if !reflect.DeepEqual(re.Store().Dump(), want) {
				t.Fatal("post-campaign clean recovery diverged")
			}
		})
	}
}
