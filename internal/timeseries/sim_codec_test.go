package timeseries_test

import (
	"testing"

	"repro/internal/simulation"
	"repro/internal/timeseries"
)

// chunkAllowance is what TestDecimalCodeNeverLosesMuch lets one chunk of a
// series cost over its Gorilla bytes. A chunk's code is chosen from the
// values before it (the raw chunk before it, the raw chunk its tier window
// sealed beside), and a series that turns from decimals to floats mid-chunk
// pays an escape for each float until the next chunk turns Gorilla.
const chunkAllowance = 64

// TestDecimalCodeNeverLosesMuch runs the simulated data centre — its real
// series names, label sets and values, a mix of exact decimals, integers and
// full-precision floats — for a few virtual hours into its store, and holds
// every series' raw and rollup tier bytes to what the same chunks hold
// Gorilla-coded throughout, plus chunkAllowance a chunk; the store as a whole
// must come out smaller.
func TestDecimalCodeNeverLosesMuch(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		dc := simulation.New(simulation.DefaultConfig(seed))
		dc.RunFor(4 * 3600)
		var actual, gorilla int
		for key, cb := range timeseries.SeriesCodeBytes(dc.Store) {
			actual += cb.Actual
			gorilla += cb.Gorilla
			if limit := cb.Gorilla + chunkAllowance*cb.Chunks; cb.Actual > limit {
				t.Errorf("seed %d: %s holds %d bytes in %d chunks, Gorilla-coded %d (limit %d)", seed, key, cb.Actual, cb.Chunks, cb.Gorilla, limit)
			}
		}
		if actual >= gorilla {
			t.Errorf("seed %d: the store holds %d bytes, %d Gorilla-coded", seed, actual, gorilla)
		}
		t.Logf("seed %d: %d bytes, %d Gorilla-coded (%.1f %%)", seed, actual, gorilla, 100*float64(actual)/float64(gorilla))
	}
}
