package persist

import (
	"repro/internal/timeseries"
)

// RecordEntries decodes one shipped WAL record into the append entries it
// carries, without applying it to any store. A joining cluster node uses
// this to tail a donor's WAL and import only the key range it now owns:
// unlike ApplyRecord, nothing lands anywhere — the caller filters the
// returned entries by ring ownership and appends the survivors itself.
//
// rt accumulates opDefine bindings across the records of one ordered
// stream so ref-addressed appends resolve to full identities; use one
// dedicated RefTable per stream and do not share it with ApplyRecord
// (RecordEntries never resolves store refs, so its definitions carry no
// SeriesRef). Maintenance records (downsample/retention) return no entries:
// the importing node applies its own retention policy to the imported data.
// A record with a retired op code is ErrUnsupportedFormat, as in ApplyRecord.
func RecordEntries(rt *RefTable, payload []byte) ([]timeseries.BatchEntry, error) {
	rec, err := decodeRecord(payload, &rt.samples)
	if err != nil {
		return nil, err
	}
	switch rec.op {
	case opDefine:
		rt.defs[rec.ref] = refDef{id: rec.id, kind: rec.kind, unit: rec.unit}
		return nil, nil
	case opAppendRef:
		entries := make([]timeseries.BatchEntry, 0, len(rec.refEntries))
		for _, e := range rec.refEntries {
			d, ok := rt.defs[e.ref]
			if !ok {
				continue // undefined ref: tolerated, like replay
			}
			entries = append(entries, timeseries.BatchEntry{
				ID: d.id, Kind: d.kind, Unit: d.unit, T: e.t, V: e.v,
			})
		}
		return entries, nil
	}
	return nil, nil
}
