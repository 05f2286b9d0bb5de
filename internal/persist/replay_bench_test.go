package persist

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// BenchmarkWALReplayRefs: crash-recovery speed for a 400-sample, 2-series
// stream as the WAL holds it — two defines, then one ref append record per
// scrape round.
func BenchmarkWALReplayRefs(b *testing.B) {
	ids := []metric.ID{
		{Name: "node_power_watts", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
		{Name: "node_cpu_temp_celsius", Labels: metric.NewLabels("node", "n042", "rack", "r02")},
	}
	var payloads [][]byte
	for i, id := range ids {
		payloads = append(payloads, encodeDefine(nil, uint64(i+1), id, metric.Gauge, metric.UnitWatt))
	}
	for r := 0; r < 200; r++ {
		now := int64(1000 + r*1000)
		payloads = append(payloads, encodeAppendRef(nil, []refSample{
			{ref: 1, t: now, v: float64(r)},
			{ref: 2, t: now, v: float64(100 - r)},
		}))
	}
	seg := frameSegment(payloads...)
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := timeseries.NewStore(64)
		rt := NewRefTable()
		res := mustReplay(b, seg, func(rec walRecord) { rec.apply(store, rt) })
		if res.torn || res.records == 0 {
			b.Fatalf("replay broke: torn=%v records=%d", res.torn, res.records)
		}
	}
}
