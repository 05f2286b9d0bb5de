package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/bench/feed"
	"repro/bench/gen"
	"repro/bench/report"
	"repro/internal/oda"
)

// selfCPU is this process's user and system CPU seconds.
func selfCPU() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// verify checks the archive against what was sent: /stats must hold every
// acked sample and series, and each seeded (series, window) pair must read
// back with exact count/min/max and a sum within 1e-9 of the generator's
// own — through every coordinator of a cluster, identically and never
// partially (httpDoor.get rejects a partial answer).
func (r *run) verify(when string, checks []gen.Check) {
	failed := 0
	samples, series, _, err := r.sumStats()
	switch {
	case err != nil:
		r.fail("%s: /stats: %v", when, err)
		failed++
	case samples != r.feed.Sent() || series != r.feed.NumSeries():
		r.fail("%s: /stats has %d samples in %d series, sent %d in %d", when, samples, series, r.feed.Sent(), r.feed.NumSeries())
		failed++
	}
	r.op("checks", 1, failed)

	clk := r.feed.Clock()
	for _, n := range r.nodes {
		door := newHTTPDoor(n.http)
		bad := 0
		for _, c := range checks {
			want := r.feed.Expect(c)
			key, from, to := r.feed.Key(c.Series), clk.TimeOf(c.FromTick), clk.TimeOf(c.ToTick)
			got := gen.Expect{}
			var cnt int
			var err error
			if _, got.Count, err = door.reduce(key, from, to, "count"); err == nil {
				if got.Min, cnt, err = door.reduce(key, from, to, "min"); err == nil && cnt == got.Count {
					if got.Max, _, err = door.reduce(key, from, to, "max"); err == nil {
						got.Sum, _, err = door.reduce(key, from, to, "sum")
					}
				}
			}
			ok := err == nil && got.Count == want.Count && got.Min == want.Min && got.Max == want.Max &&
				math.Abs(got.Sum-want.Sum) <= 1e-9*math.Max(1, math.Abs(want.Sum))
			if !ok {
				bad++
				if bad == 1 {
					r.fail("%s: node %s: %s [%d,%d): got %+v, want %+v (%v)", when, n.id, key, from, to, got, want, err)
				}
			}
		}
		door.close()
		r.op("checks", len(checks), bad)
	}
}

// analyzeResponse is the part of /analyze the benchmark reads.
type analyzeResponse struct {
	From    int64 `json:"from"`
	To      int64 `json:"to"`
	Results map[string]struct {
		Values map[string]float64 `json:"values"`
	} `json:"results"`
}

func (a *analyzeResponse) answering() []string {
	names := make([]string, 0, len(a.Results))
	for n := range a.Results {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// nondeterministic lists capabilities whose values legitimately differ
// between two sweeps of the same archive; only their presence is checked.
// Empty today: every built-in capability is a pure function of the window.
var nondeterministic = map[string]bool{}

// sameValues reports the first capability whose values differ.
func sameValues(a, b *analyzeResponse) string {
	for name, ra := range a.Results {
		if nondeterministic[name] {
			continue
		}
		if rb, ok := b.Results[name]; !ok || !reflect.DeepEqual(ra.Values, rb.Values) {
			return name
		}
	}
	return ""
}

// analyzePhase runs the sequential grid sweeps over the live archive of
// node a, and checks that repeated sweeps of the now quiescent archive
// agree; on the simulated centre it also checks the answering set and the
// values against an in-process sweep over the centre's own store.
func (r *run) analyzePhase() error {
	door := newHTTPDoor(r.nodes[0].http)
	defer door.close()
	var times []float64
	var first, last *analyzeResponse
	failed := 0
	for i := 0; i < r.sp.Sweeps; i++ {
		start := time.Now()
		body, err := door.get(fmt.Sprintf("/analyze?window_hours=%d", gen.AnalyzeWindowHours))
		times = append(times, float64(time.Since(start))/1e6)
		if err != nil {
			failed++
			r.fail("sweep %d: %v", i, err)
			continue
		}
		last = new(analyzeResponse)
		if err := json.Unmarshal(body, last); err != nil {
			failed++
			r.fail("sweep %d: %v", i, err)
			continue
		}
		if first == nil {
			first = last
		} else if d := sameValues(first, last); d != "" || len(first.Results) != len(last.Results) {
			failed++
			r.fail("sweep %d disagrees with sweep 0 on %q", i, d)
		}
	}
	r.op("sweeps", r.sp.Sweeps, failed)
	r.metrics["analyze_sweep_ms_p50"] = report.Metric{Value: report.Median(times), Unit: "ms", N: len(times)}
	if last == nil {
		return nil
	}
	r.diag("oda.capabilities_answering", float64(len(last.Results)), "count")

	sim, ok := r.feed.(*feed.Sim)
	if !ok {
		return nil
	}
	// The reference: the same grid, in process, over the store the centre's
	// own StoreSink filled from the same readings, on the same window.
	grid, err := repro.FullGrid()
	if err != nil {
		return err
	}
	results, _ := grid.RunAll(&oda.RunContext{Store: sim.DC.Store, From: last.From, To: last.To})
	ref := &analyzeResponse{Results: map[string]struct {
		Values map[string]float64 `json:"values"`
	}{}}
	for name, res := range results {
		// Through JSON, as odad's answer went: a nil and an empty map, or a
		// NaN-free float, must compare the way the wire rendered them.
		enc, err := json.Marshal(struct {
			Values map[string]float64 `json:"values,omitempty"`
		}{res.Values})
		if err != nil {
			return err
		}
		var v struct {
			Values map[string]float64 `json:"values"`
		}
		if err := json.Unmarshal(enc, &v); err != nil {
			return err
		}
		ref.Results[name] = v
	}
	failed = 0
	if got, want := strings.Join(last.answering(), ","), strings.Join(ref.answering(), ","); got != want {
		failed++
		r.fail("answering capabilities over the wire-fed archive: %s; in process: %s", got, want)
	} else if d := sameValues(ref, last); d != "" {
		failed++
		r.fail("capability %q: odad %v, in process %v", d, last.Results[d].Values, ref.Results[d].Values)
	}
	r.op("checks", 1, failed)
	return nil
}
