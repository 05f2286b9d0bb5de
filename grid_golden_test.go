package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

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
// the pinned ones, and the same again over that run's archive written as a
// snapshot payload and restored — which, with the simulation store's 1m and
// 1h tiers, adopts every sealed chunk and re-encodes every last one. The
// grid's prescriptive capabilities actuate the simulated centre, so the
// second sweep runs on a second run of the seed, its store swapped for the
// restored one. A different hash over the live store is a changed answer:
// re-pin it only with the old and new hash and the capability that moved
// named. A different hash over the restored store is a restore bug.
func TestGridGolden(t *testing.T) {
	for _, g := range gridGolden {
		got, answers, values := gridHash(t, StandardExperiment(g.seed, 16, 8).Ctx)
		t.Logf("seed %d: %d answers, %d values, hash %s", g.seed, answers, values, got)
		if got != g.hash {
			t.Errorf("seed %d: grid hash %s, want %s", g.seed, got, g.hash)
		}
		run := StandardExperiment(g.seed, 16, 8)
		live := run.DC.Store
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
			t.Fatalf("seed %d: the snapshot holds no sealed chunk to adopt", g.seed)
		}
		restored, err := timeseries.RestoreStore(chunkSize, dump)
		if err != nil {
			t.Fatal(err)
		}
		run.Ctx.Store = restored
		if again, _, _ := gridHash(t, run.Ctx); again != got {
			t.Errorf("seed %d: grid hash over the restored snapshot %s, over the live store %s", g.seed, again, got)
		}
	}
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
