// Package dashboard renders telemetry for operators: ASCII sparklines,
// tables and heatmaps for terminal dashboards, plus an HTTP handler that
// serves the same views as JSON — the visualization-oriented descriptive
// ODA the survey found dominates production deployments.
package dashboard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/stats"
)

// sparkRunes are the eight block glyphs of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode strip chart.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Heatmap renders a rows x cols value grid as unicode shading, one string
// per row. Useful for rack/node temperature overviews.
func Heatmap(grid [][]float64) []string {
	var lo, hi float64
	first := true
	for _, row := range grid {
		for _, v := range row {
			if first {
				lo, hi = v, v
				first = false
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	shades := []rune(" ░▒▓█")
	out := make([]string, len(grid))
	for i, row := range grid {
		var b strings.Builder
		for _, v := range row {
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(shades)-1))
			}
			b.WriteRune(shades[idx])
		}
		out[i] = b.String()
	}
	return out
}

// Gauge renders a horizontal bar for a value within [lo, hi].
func Gauge(label string, value, lo, hi float64, width int) string {
	if width < 4 {
		width = 4
	}
	frac := 0.0
	if hi > lo {
		frac = stats.Clamp((value-lo)/(hi-lo), 0, 1)
	}
	filled := int(math.Round(frac * float64(width)))
	return fmt.Sprintf("%-24s [%s%s] %8.2f", label,
		strings.Repeat("#", filled), strings.Repeat(".", width-filled), value)
}

// Panel is one named view over the store.
type Panel struct {
	Title string
	// Name filters series by metric name; Selector by labels.
	Name     string
	Selector metric.Labels
	// WindowMs is how much recent history the panel shows.
	WindowMs int64
	// StepMs, when positive, renders the panel through the query planner:
	// values become per-bucket means at this resolution, served from rollup
	// tiers when the store keeps a matching one. Long-window panels set it
	// so render cost scales with buckets, not raw samples.
	StepMs int64
}

// Dashboard groups panels over one archive.
type Dashboard struct {
	Store  oda.Archive
	Panels []Panel
	// Latest, when set, returns the evaluation instant of an HTTP request
	// that names none (the ingest watermark of the node serving it); nil
	// scans the archive for its newest sample.
	Latest func() int64
}

// PanelData is the machine-readable render of one panel.
type PanelData struct {
	Title  string       `json:"title"`
	Series []SeriesData `json:"series"`
}

// SeriesData is one series' summary within a panel.
type SeriesData struct {
	ID     string    `json:"id"`
	Last   float64   `json:"last"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// Snapshot evaluates every panel at time now.
func (d *Dashboard) Snapshot(now int64) []PanelData {
	out := make([]PanelData, 0, len(d.Panels))
	for _, p := range d.Panels {
		window := p.WindowMs
		if window <= 0 {
			window = 3600 * 1000
		}
		pd := PanelData{Title: p.Title}
		ids := d.Store.Select(p.Name, p.Selector)
		from, to := now-window, now+1
		if p.StepMs > 0 {
			// Planned render: align the window start down to a step boundary
			// (tier eligibility requires an aligned origin), then read
			// per-bucket means through the planner.
			if rem := ((from % p.StepMs) + p.StepMs) % p.StepMs; rem != 0 {
				from -= rem
			}
		}
		// One fused pass per series: the summary statistics accumulate over
		// the display values, raw or per-bucket means.
		for _, id := range ids {
			vals, err := d.Store.SeriesValues(id, from, to, p.StepMs)
			if err != nil || len(vals) == 0 {
				continue // skip broken/empty series
			}
			var o stats.Online
			for _, v := range vals {
				o.Add(v)
			}
			s := o.Summary()
			pd.Series = append(pd.Series, SeriesData{
				ID: id.Key(), Last: vals[len(vals)-1],
				Mean: s.Mean, Min: s.Min, Max: s.Max, Values: vals,
			})
		}
		out = append(out, pd) // in key order, as Select returned the series
	}
	return out
}

// RenderText renders the dashboard for a terminal.
func (d *Dashboard) RenderText(now int64) string {
	var b strings.Builder
	for _, pd := range d.Snapshot(now) {
		fmt.Fprintf(&b, "== %s ==\n", pd.Title)
		for _, s := range pd.Series {
			vals := s.Values
			if len(vals) > 60 {
				vals = vals[len(vals)-60:]
			}
			fmt.Fprintf(&b, "%-48s %s last=%.2f mean=%.2f [%.2f..%.2f]\n",
				s.ID, Sparkline(vals), s.Last, s.Mean, s.Min, s.Max)
		}
	}
	return b.String()
}

// Now is the evaluation instant a request asks for: its "now" query
// parameter (Unix millis), else Latest, else the newest sample in the
// archive.
func (d *Dashboard) Now(r *http.Request) (int64, error) {
	now := int64(0)
	if q := r.URL.Query().Get("now"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &now); err != nil {
			return 0, errors.New("bad now parameter")
		}
	}
	if now == 0 && d.Latest != nil {
		now = d.Latest()
	} else if now == 0 {
		for _, id := range d.Store.Select("", nil) {
			_ = d.Store.Each(id, math.MinInt64, math.MaxInt64, func(sm metric.Sample) bool {
				now = max(now, sm.T)
				return true
			})
		}
	}
	return now, nil
}

// Handler serves the dashboard as JSON at its mount point, evaluated at the
// instant Now picks.
func (d *Dashboard) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now, err := d.Now(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(d.Snapshot(now)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
