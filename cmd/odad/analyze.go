package main

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/oda"
	"repro/internal/timeseries"
)

// newestSample returns the timestamp of the newest sample in store (0 for
// an empty store): what the ingest watermark must start from after a
// restart recovered an archive, before the first new batch moves it.
func newestSample(store *timeseries.Store) int64 {
	var newest int64
	for _, id := range store.Select("", nil) {
		if sm, ok := store.Latest(id); ok {
			newest = max(newest, sm.T)
		}
	}
	return newest
}

// analyzeHandler runs one wave-scheduled sweep of the full capability grid
// over the archived telemetry and returns every capability's summary and
// values, the per-capability errors (capabilities that need a live system
// handle report so here rather than aborting the sweep), and the schedule
// the sweep ran with. ?window_hours bounds the analysis window back from
// the newest ingested sample (default 6).
func analyzeHandler(grid *oda.Grid, store *timeseries.Store, latest func() int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		windowHours := 6.0
		if s := r.URL.Query().Get("window_hours"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v <= 0 {
				http.Error(w, "window_hours must be a positive number", http.StatusBadRequest)
				return
			}
			windowHours = v
		}
		to := latest() + 1
		from := to - int64(windowHours*3600*1000)
		if from < 0 {
			from = 0
		}
		results, errs := grid.RunAll(&oda.RunContext{Store: store, From: from, To: to})
		type capResult struct {
			Summary string             `json:"summary"`
			Values  map[string]float64 `json:"values,omitempty"`
		}
		payload := struct {
			From    int64                `json:"from"`
			To      int64                `json:"to"`
			Results map[string]capResult `json:"results"`
			Errors  map[string]string    `json:"errors"`
			Waves   [][]string           `json:"waves"`
		}{
			From:    from,
			To:      to,
			Results: make(map[string]capResult, len(results)),
			Errors:  make(map[string]string, len(errs)),
			Waves:   grid.Waves(),
		}
		for name, res := range results {
			payload.Results[name] = capResult{Summary: res.Summary, Values: res.Values}
		}
		for name, err := range errs {
			payload.Errors[name] = err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
