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
// column-predicted layout; the raw chunks in it are the bytes they were.
const fleetDumpSHA256 = "25cd1e3ab38f2c2589c1509c208c7f1de7ccbaa7a5abafa9e79efcbe94ccf43e"

func TestFleetReplayDumpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 1.5M samples")
	}
	log := fleetWAL()
	store := newFleetStore()
	rt := NewRefTable()
	for _, seg := range log.segments {
		if res := mustReplay(t, seg, func(rec walRecord) { rec.apply(store, rt) }); res.torn {
			t.Fatal("fleet segment replayed torn")
		}
	}
	sum := sha256.Sum256(EncodeDump(store.ChunkSize(), store.Dump()))
	if got := hex.EncodeToString(sum[:]); got != fleetDumpSHA256 {
		t.Fatalf("fleet dump sha256 = %s, want %s", got, fleetDumpSHA256)
	}
}
