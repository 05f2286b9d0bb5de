package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// fleetDumpSHA256 is sha256(EncodeDump(chunkSize, store.Dump())) after
// replaying the fleet WAL, recorded at the commit before the Gorilla bit
// writer, the rollup seal and the replay loop were rewritten (PR 14). A
// different value means recovery no longer rebuilds the bytes it used to.
// Re-pinned by PR 16, the format change that moved tier chunks to the
// column-predicted layout; by the decimal value code (snapshot v4: the
// fleet's values are all decimals, and every chunk carries its code); and by
// the one-sample window layout (snapshot v5: every tier chunk's tag carries
// its layout, while the fleet's chunk bytes stay as they were, its windows
// holding six samples each). The v3 hash was
// 25cd1e3ab38f2c2589c1509c208c7f1de7ccbaa7a5abafa9e79efcbe94ccf43e, the v4
// one 6fe24566d2deeb288bdd239e5ab80af1489cf551dddc4578a90e3b450c968b11.
const fleetDumpSHA256 = "eedae54f81b3a5034532a6db7976588a3d8b6891e1b82e79324e27581152284c"

func TestFleetReplayDumpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 1.5M samples")
	}
	log := fleetWAL()
	store := newFleetStore()
	app := NewApplier(store)
	for _, seg := range log.segments {
		if res := mustReplay(t, seg, app.apply); res.torn {
			t.Fatal("fleet segment replayed torn")
		}
	}
	app.Close()
	sum := sha256.Sum256(EncodeDump(store.ChunkSize(), store.Dump()))
	if got := hex.EncodeToString(sum[:]); got != fleetDumpSHA256 {
		t.Fatalf("fleet dump sha256 = %s, want %s", got, fleetDumpSHA256)
	}
}
