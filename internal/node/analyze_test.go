package node

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/timeseries"
)

// TestAnalyzeHandlerSmoke runs the /analyze sweep against a store holding a
// little facility telemetry: storage-only capabilities succeed, the ones
// needing a live system handle surface per-capability errors, and the
// payload reports the wave schedule the sweep ran with.
func TestAnalyzeHandlerSmoke(t *testing.T) {
	store := timeseries.NewStore(64)
	id := metric.ID{Name: "facility_pue", Labels: metric.NewLabels("site", "vdc")}
	for i := int64(0); i < 120; i++ {
		if err := store.Append(id, metric.Gauge, metric.UnitNone, i*60_000, 1.3+0.01*float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	grid, err := repro.FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	latest := func() int64 { return 119 * 60_000 }

	rec := httptest.NewRecorder()
	analyzeHandler(grid, func() archive { return shard{store} }, latest)(rec, httptest.NewRequest("GET", "/analyze?window_hours=3", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		From    int64 `json:"from"`
		To      int64 `json:"to"`
		Results map[string]struct {
			Summary string             `json:"summary"`
			Values  map[string]float64 `json:"values"`
		} `json:"results"`
		Errors map[string]string `json:"errors"`
		Waves  [][]string        `json:"waves"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The archive is only 2h long, so the 3h window clamps at zero.
	if got.To != latest()+1 || got.From != 0 {
		t.Fatalf("window [%d, %d), want [0, %d)", got.From, got.To, latest()+1)
	}
	// PUE needs only the archive; it must have succeeded on this store.
	if _, ok := got.Results["pue-kpi"]; !ok {
		t.Fatalf("pue-kpi missing from results: %v / errors %v", got.Results, got.Errors)
	}
	// Actuators need the live data center; with none attached they report
	// errors instead of poisoning the sweep.
	if len(got.Errors) == 0 {
		t.Fatal("expected system-needing capabilities to report errors")
	}
	if len(got.Waves) < 2 {
		t.Fatalf("waves = %v, want the multi-wave production schedule", got.Waves)
	}

	// Bad window: rejected.
	rec = httptest.NewRecorder()
	analyzeHandler(grid, func() archive { return shard{store} }, latest)(rec, httptest.NewRequest("GET", "/analyze?window_hours=-1", nil))
	if rec.Code != 400 {
		t.Fatalf("negative window: status %d, want 400", rec.Code)
	}
}

// TestAnalyzeWindowAfterRestart: a daemon restarted on a recovered archive
// must sweep the window that ends at the archive's newest sample, not
// [0, 1), before any new batch arrives. The watermark is seeded from
// newestSample at start-up.
func TestAnalyzeWindowAfterRestart(t *testing.T) {
	dir := t.TempDir()
	opts := persist.Options{ChunkSize: 64, Fsync: persist.FsyncNever}
	d, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	pue := metric.ID{Name: "facility_pue", Labels: metric.NewLabels("site", "vdc")}
	power := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")}
	const newest = 9 * 3600 * 1000 // 9h of minutely PUE; the power series stops earlier
	for ts := int64(60_000); ts <= newest; ts += 60_000 {
		if err := d.Append(pue, metric.Gauge, metric.UnitNone, ts, 1.3); err != nil {
			t.Fatal(err)
		}
		if ts <= newest/2 {
			if err := d.Append(power, metric.Gauge, metric.UnitWatt, ts, 200); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Crash()

	re, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Crash()
	if got := newestSample(re.Store()); got != newest {
		t.Fatalf("newestSample = %d, want %d", got, newest)
	}
	if got := newestSample(timeseries.NewStore(0)); got != 0 {
		t.Fatalf("newestSample of an empty store = %d, want 0", got)
	}
	grid, err := repro.FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	latest := newestSample(re.Store())
	rec := httptest.NewRecorder()
	analyzeHandler(grid, func() archive { return shard{re.Store()} }, func() int64 { return latest })(rec, httptest.NewRequest("GET", "/analyze?window_hours=6", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		From, To int64
		Results  map[string]json.RawMessage
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.To != newest+1 || got.From != newest+1-6*3600*1000 {
		t.Fatalf("window [%d, %d), want [%d, %d)", got.From, got.To, newest+1-6*3600*1000, newest+1)
	}
	if _, ok := got.Results["pue-kpi"]; !ok {
		t.Fatal("pue-kpi did not answer over the recovered archive")
	}
}
