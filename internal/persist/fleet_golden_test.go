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
const fleetDumpSHA256 = "9dd8e36203a8fd39633fe322dc64419567fde3433776676de602a36df0f0ef3b"

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
