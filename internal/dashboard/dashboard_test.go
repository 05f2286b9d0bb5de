package dashboard

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/metric"
	"repro/internal/timeseries"
	"repro/internal/tsmodel"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline runes = %d", utf8.RuneCountInString(s))
	}
	if !strings.HasPrefix(s, "▁") || !strings.HasSuffix(s, "█") {
		t.Fatalf("sparkline = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

func TestHeatmap(t *testing.T) {
	rows := Heatmap([][]float64{{0, 1}, {2, 4}})
	if len(rows) != 2 {
		t.Fatal("rows")
	}
	if rows[0] == rows[1] {
		t.Fatalf("distinct values render identically: %q", rows)
	}
	// Constant grid renders without panic.
	c := Heatmap([][]float64{{1, 1}, {1, 1}})
	if len(c) != 2 {
		t.Fatal("constant grid")
	}
	if out := Heatmap(nil); len(out) != 0 {
		t.Fatal("empty grid")
	}
}

func TestGauge(t *testing.T) {
	g := Gauge("pue", 1.25, 1, 2, 20)
	if !strings.Contains(g, "pue") || !strings.Contains(g, "1.25") {
		t.Fatalf("gauge = %q", g)
	}
	full := Gauge("x", 99, 0, 10, 10)
	if !strings.Contains(full, "##########") {
		t.Fatalf("over-range gauge should clamp full: %q", full)
	}
	empty := Gauge("x", -5, 0, 10, 10)
	if strings.Contains(empty, "#") {
		t.Fatalf("under-range gauge should be empty: %q", empty)
	}
	if !strings.Contains(Gauge("x", 1, 0, 2, 0), "[") {
		t.Fatal("tiny width should be clamped, not panic")
	}
}

func buildStore(t *testing.T) *timeseries.Store {
	t.Helper()
	store := timeseries.NewStore(0)
	for n := 0; n < 3; n++ {
		id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", string(rune('a'+n)))}
		for i := int64(0); i < 100; i++ {
			if err := store.Append(id, metric.Gauge, metric.UnitWatt, i*60_000, float64(100+n*10+int(i%5))); err != nil {
				t.Fatal(err)
			}
		}
	}
	id := metric.ID{Name: "facility_pue"}
	for i := int64(0); i < 100; i++ {
		_ = store.Append(id, metric.Gauge, metric.UnitNone, i*60_000, 1.3)
	}
	return store
}

func TestDashboardSnapshot(t *testing.T) {
	store := buildStore(t)
	d := Dashboard{
		Store: store,
		Panels: []Panel{
			{Title: "Node power", Name: "node_power_watts", WindowMs: 100 * 60_000},
			{Title: "PUE", Name: "facility_pue"},
		},
	}
	now := int64(99 * 60_000)
	snap := d.Snapshot(now)
	if len(snap) != 2 {
		t.Fatalf("panels = %d", len(snap))
	}
	if len(snap[0].Series) != 3 {
		t.Fatalf("node series = %d", len(snap[0].Series))
	}
	// Sorted by ID.
	for i := 1; i < len(snap[0].Series); i++ {
		if snap[0].Series[i].ID <= snap[0].Series[i-1].ID {
			t.Fatal("series not sorted")
		}
	}
	// PUE panel uses the default 1h window: 60 samples at 60s cadence + 1.
	if n := len(snap[1].Series[0].Values); n < 55 || n > 62 {
		t.Fatalf("default window values = %d", n)
	}
	if snap[1].Series[0].Last != 1.3 {
		t.Fatalf("pue last = %v", snap[1].Series[0].Last)
	}
}

// TestDashboardPlannedPanel drives the StepMs render path: a rollup-backed
// store must serve per-minute bucket means from its 1m tier, and the values
// must match what the raw path produces for the same bucketing.
func TestDashboardPlannedPanel(t *testing.T) {
	store := timeseries.NewStore(0, timeseries.WithRollups(timeseries.TierStep1m))
	model := tsmodel.New(true)
	id := metric.ID{Name: "node_power_watts", Labels: metric.NewLabels("node", "a")}
	// 10s cadence so each 1m bucket really averages 6 samples.
	for i := int64(0); i < 6*60*4; i++ {
		if err := store.Append(id, metric.Gauge, metric.UnitWatt, i*10_000, float64(100+i%7)); err != nil {
			t.Fatal(err)
		}
		model.Append(id, i*10_000, float64(100+i%7))
	}
	now := int64(6*60*4-1) * 10_000
	window := int64(3 * 3600 * 1000)
	planned := Dashboard{Store: store, Panels: []Panel{
		{Title: "Power", Name: "node_power_watts", WindowMs: window, StepMs: timeseries.TierStep1m},
	}}
	snap := planned.Snapshot(now)
	if len(snap) != 1 || len(snap[0].Series) != 1 {
		t.Fatalf("planned snapshot = %+v", snap)
	}
	got := snap[0].Series[0]
	// ~180 minute buckets, not ~1080 raw samples.
	if n := len(got.Values); n < 175 || n > 182 {
		t.Fatalf("planned bucket count = %d", n)
	}
	from := now - window
	from -= from % timeseries.TierStep1m
	// The reference mean of every non-empty minute.
	pts, err := model.Aggregate(id.Key(), from, now+1, timeseries.TierStep1m, string(timeseries.AggMean))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(got.Values) {
		t.Fatalf("bucket counts diverge: planned %d vs raw %d", len(got.Values), len(pts))
	}
	for i, pt := range pts {
		if got.Values[i] != pt.Value {
			t.Fatalf("bucket %d: planned %v vs raw %v", i, got.Values[i], pt.Value)
		}
	}
	if stats := store.RollupStats(); len(stats.Tiers) == 0 || stats.Tiers[0].Picks == 0 {
		t.Fatalf("planned panel never hit the tier: %+v", stats)
	}
}

func TestDashboardRenderText(t *testing.T) {
	store := buildStore(t)
	d := Dashboard{Store: store, Panels: []Panel{{Title: "Power", Name: "node_power_watts"}}}
	text := d.RenderText(99 * 60_000)
	if !strings.Contains(text, "== Power ==") {
		t.Fatalf("missing panel header:\n%s", text)
	}
	if !strings.Contains(text, "node_power_watts{node=a}") {
		t.Fatalf("missing series line:\n%s", text)
	}
}

func TestDashboardHTTP(t *testing.T) {
	store := buildStore(t)
	d := Dashboard{Store: store, Panels: []Panel{{Title: "Power", Name: "node_power_watts"}}}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var panels []PanelData
	if err := json.NewDecoder(resp.Body).Decode(&panels); err != nil {
		t.Fatal(err)
	}
	if len(panels) != 1 || len(panels[0].Series) != 3 {
		t.Fatalf("panels = %+v", panels)
	}

	// Explicit now parameter.
	resp2, err := srv.Client().Get(srv.URL + "?now=600000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var early []PanelData
	_ = json.NewDecoder(resp2.Body).Decode(&early)
	if len(early[0].Series[0].Values) >= len(panels[0].Series[0].Values) {
		t.Fatal("early now should see fewer samples")
	}

	// Bad now parameter is a 400.
	resp3, _ := srv.Client().Get(srv.URL + "?now=notanumber")
	if resp3.StatusCode != 400 {
		t.Fatalf("bad param status = %d", resp3.StatusCode)
	}
	resp3.Body.Close()
}
