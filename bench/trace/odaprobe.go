package main

import (
	"time"

	"repro"
	"repro/bench/gen"
	"repro/bench/report"
	"repro/internal/oda"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// odaProbes sweeps the paper's grid over the archive the way odad's
// /analyze does — no live system handle, the last AnalyzeWindowHours — and
// splits the sweep by analytics type and by what the wave scheduler buys.
func (l *layers) odaProbes(lastT int64) error {
	grid, err := repro.FullGrid()
	if err != nil {
		return err
	}
	to := lastT + 1
	ctx := &oda.RunContext{Store: l.archive, From: max(0, to-gen.AnalyzeWindowHours*3600*1000), To: to}

	sweep := func(n int) (float64, int) {
		var times []float64
		answering := 0
		for i := 0; i < n; i++ {
			t0 := time.Now()
			results, _ := grid.RunAll(ctx)
			times = append(times, ms(time.Since(t0)))
			answering = len(results)
		}
		return report.Median(times), answering
	}
	const sweeps = 5
	def, answering := sweep(sweeps)
	st := grid.ScheduleStats()
	grid.SetWorkers(1)
	serial, _ := sweep(sweeps)
	grid.SetWorkers(0)
	l.setN("oda.sweep_ms_p50", def, "ms", sweeps)
	l.set("oda.parallel_speedup", serial/def, "ratio")
	l.set("oda.waves", float64(st.Waves)/float64(max(1, st.Sweeps)), "count")
	l.set("oda.max_wave_width", float64(st.MaxWaveWidth), "count")
	l.set("oda.capabilities_answering", float64(answering), "count")

	// Each answering capability alone, booked to the analytics type of its
	// first cell.
	byType := map[oda.Type]time.Duration{}
	for _, name := range grid.Names() {
		c, _ := grid.Get(name)
		t0 := time.Now()
		_, err := c.Run(ctx)
		d := time.Since(t0)
		if cells := c.Meta().Cells; err == nil && len(cells) > 0 {
			byType[cells[0].Type] += d
		}
	}
	for _, t := range oda.Types() {
		l.set("oda."+t.String()+"_ms", ms(byType[t]), "ms")
	}
	return nil
}
