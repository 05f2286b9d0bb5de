// Package anomaly implements the detector families used by diagnostic ODA:
// robust statistical detectors (z-score, MAD, IQR), sequential detectors
// (EWMA control charts, CUSUM), a PCA residual-subspace detector for
// multi-dimensional node telemetry, and Bodik-style crisis fingerprinting.
package anomaly

import (
	"errors"
	"math"
	"sort"

	"repro/internal/ml"
	"repro/internal/stats"
)

// Event is one detected anomaly: the sample index it fired on, the observed
// value, and a unitless severity score (larger = more anomalous).
type Event struct {
	Index int
	Value float64
	Score float64
}

// Detector scores points of a univariate series; scores above 1 are
// anomalous by convention (detectors normalize their thresholds to 1).
type Detector interface {
	// Detect returns anomalous points of xs in index order.
	Detect(xs []float64) []Event
	// Name identifies the detector in reports.
	Name() string
}

// ZScore flags points whose rolling z-score magnitude exceeds Threshold.
// The window makes it adaptive to slow drift in node telemetry.
type ZScore struct {
	Window    int     // rolling window size (default 60)
	Threshold float64 // in standard deviations (default 3)
}

// Name implements Detector.
func (z *ZScore) Name() string { return "zscore" }

// Detect implements Detector.
func (z *ZScore) Detect(xs []float64) []Event {
	window := z.Window
	if window <= 1 {
		window = 60
	}
	thr := z.Threshold
	if thr <= 0 {
		thr = 3
	}
	roll := stats.NewRolling(window)
	var out []Event
	for i, x := range xs {
		if roll.Full() {
			mean, std := roll.Mean(), roll.Std()
			if std > 0 {
				score := math.Abs(x-mean) / std / thr
				if score > 1 {
					out = append(out, Event{Index: i, Value: x, Score: score})
				}
			}
		}
		roll.Add(x)
	}
	return out
}

// MAD flags points deviating from the batch median by more than Threshold
// robust standard deviations (median absolute deviation scaled by 1.4826).
// Unlike ZScore it is immune to the anomalies inflating the spread estimate.
type MAD struct {
	Threshold float64 // default 3.5 (the Iglewicz-Hoaglin recommendation)
}

// Name implements Detector.
func (m *MAD) Name() string { return "mad" }

// Detect implements Detector.
func (m *MAD) Detect(xs []float64) []Event {
	if len(xs) < 3 {
		return nil
	}
	thr := m.Threshold
	if thr <= 0 {
		thr = 3.5
	}
	med, err := stats.Median(xs)
	if err != nil {
		return nil
	}
	mad, err := stats.MAD(xs)
	if err != nil || mad == 0 {
		return nil
	}
	var out []Event
	for i, x := range xs {
		score := math.Abs(x-med) / mad / thr
		if score > 1 {
			out = append(out, Event{Index: i, Value: x, Score: score})
		}
	}
	return out
}

// IQR implements the Tukey fence: points beyond K interquartile ranges
// outside [Q1, Q3] are anomalous.
type IQR struct {
	K float64 // fence multiplier (default 1.5)
}

// Name implements Detector.
func (d *IQR) Name() string { return "iqr" }

// Detect implements Detector.
func (d *IQR) Detect(xs []float64) []Event {
	if len(xs) < 4 {
		return nil
	}
	k := d.K
	if k <= 0 {
		k = 1.5
	}
	qs, err := stats.Quantiles(xs, 0.25, 0.75)
	if err != nil {
		return nil
	}
	q1, q3 := qs[0], qs[1]
	iqr := q3 - q1
	if iqr == 0 {
		return nil
	}
	lo, hi := q1-k*iqr, q3+k*iqr
	var out []Event
	for i, x := range xs {
		var score float64
		switch {
		case x < lo:
			score = 1 + (lo-x)/iqr
		case x > hi:
			score = 1 + (x-hi)/iqr
		default:
			continue
		}
		out = append(out, Event{Index: i, Value: x, Score: score})
	}
	return out
}

// CUSUM is a two-sided cumulative-sum change detector: it fires when the
// cumulative drift of the series from its baseline mean exceeds the decision
// threshold H (in standard deviations), catching slow regime changes that
// point detectors miss (e.g. a degrading pump).
type CUSUM struct {
	// Baseline is the number of initial samples used to estimate the
	// in-control mean and std (default 50).
	Baseline int
	// Slack is the allowance k in std units (default 0.5).
	Slack float64
	// H is the decision threshold in std units (default 5).
	H float64
}

// Name implements Detector.
func (c *CUSUM) Name() string { return "cusum" }

// Detect implements Detector.
func (c *CUSUM) Detect(xs []float64) []Event {
	var out []Event
	c.scan(xs, func(i int, score float64) {
		out = append(out, Event{Index: i, Value: xs[i], Score: score})
	})
	return out
}

// Alarms is len(c.Detect(xs)) without building the events: a sweep that
// only counts a series' alarms holds nothing per alarm.
func (c *CUSUM) Alarms(xs []float64) int {
	n := 0
	c.scan(xs, func(int, float64) { n++ })
	return n
}

// scan runs the two-sided chart over xs and hands each alarm's index and
// score to alarm, in order.
func (c *CUSUM) scan(xs []float64, alarm func(i int, score float64)) {
	baseline := c.Baseline
	if baseline <= 1 {
		baseline = 50
	}
	if len(xs) <= baseline {
		return
	}
	slack := c.Slack
	if slack <= 0 {
		slack = 0.5
	}
	h := c.H
	if h <= 0 {
		h = 5
	}
	base, err := stats.Summarize(xs[:baseline])
	if err != nil || base.Std == 0 {
		return
	}
	var hi, lo float64
	for i := baseline; i < len(xs); i++ {
		z := (xs[i] - base.Mean) / base.Std
		hi = math.Max(0, hi+z-slack)
		lo = math.Max(0, lo-z-slack)
		if hi > h || lo > h {
			alarm(i, math.Max(hi, lo)/h)
			hi, lo = 0, 0 // restart after alarm
		}
	}
}

// EWMAChart is an exponentially-weighted moving-average control chart with
// the standard steady-state control limits L*sigma*sqrt(lambda/(2-lambda)).
type EWMAChart struct {
	Lambda   float64 // EWMA weight (default 0.2)
	L        float64 // control limit width in sigmas (default 3)
	Baseline int     // samples for mean/std estimation (default 50)
}

// Name implements Detector.
func (e *EWMAChart) Name() string { return "ewma-chart" }

// Detect implements Detector.
func (e *EWMAChart) Detect(xs []float64) []Event {
	baseline := e.Baseline
	if baseline <= 1 {
		baseline = 50
	}
	if len(xs) <= baseline {
		return nil
	}
	lambda := e.Lambda
	if lambda <= 0 || lambda > 1 {
		lambda = 0.2
	}
	l := e.L
	if l <= 0 {
		l = 3
	}
	base, err := stats.Summarize(xs[:baseline])
	if err != nil || base.Std == 0 {
		return nil
	}
	limit := l * base.Std * math.Sqrt(lambda/(2-lambda))
	z := base.Mean
	var out []Event
	for i := baseline; i < len(xs); i++ {
		z = lambda*xs[i] + (1-lambda)*z
		dev := math.Abs(z - base.Mean)
		if dev > limit {
			out = append(out, Event{Index: i, Value: xs[i], Score: dev / limit})
		}
	}
	return out
}

// Ensemble combines detectors with majority voting: a point is anomalous if
// at least Quorum member detectors flag it. Scores are summed.
type Ensemble struct {
	Members []Detector
	Quorum  int // default: majority of members
}

// Name implements Detector.
func (e *Ensemble) Name() string { return "ensemble" }

// Detect implements Detector.
func (e *Ensemble) Detect(xs []float64) []Event {
	if len(e.Members) == 0 {
		return nil
	}
	quorum := e.Quorum
	if quorum <= 0 {
		quorum = len(e.Members)/2 + 1
	}
	votes := make(map[int]int)
	scores := make(map[int]float64)
	values := make(map[int]float64)
	for _, d := range e.Members {
		for _, ev := range d.Detect(xs) {
			votes[ev.Index]++
			scores[ev.Index] += ev.Score
			values[ev.Index] = ev.Value
		}
	}
	var out []Event
	for idx, v := range votes {
		if v >= quorum {
			out = append(out, Event{Index: idx, Value: values[idx], Score: scores[idx]})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// Subspace is a PCA residual-subspace detector for multi-dimensional
// telemetry vectors (one vector per timestep, e.g. all of a node's sensors).
// It retains enough principal components to explain VarianceTarget of the
// training variance and scores vectors by their residual (Q-statistic)
// relative to the training distribution.
type Subspace struct {
	// VarianceTarget in (0,1]; default 0.95.
	VarianceTarget float64
	// Threshold multiplies the training residual's P99 to set the alarm
	// level; default 1.
	Threshold float64

	pca   ml.PCA
	k     int
	alarm float64
}

// Fit learns the normal-behaviour subspace from rows of healthy telemetry.
func (s *Subspace) Fit(train *ml.Matrix) error {
	if train.Rows < 4 {
		return errors.New("anomaly: subspace needs at least 4 training rows")
	}
	target := s.VarianceTarget
	if target <= 0 || target > 1 {
		target = 0.95
	}
	if err := s.pca.Fit(train); err != nil {
		return err
	}
	s.k = s.pca.ComponentsFor(target)
	if s.k >= train.Cols { // keep at least one residual dimension
		s.k = train.Cols - 1
	}
	if s.k < 1 {
		s.k = 1
	}
	res := make([]float64, train.Rows)
	for i := 0; i < train.Rows; i++ {
		r, err := s.pca.ResidualNorm(train.Row(i), s.k)
		if err != nil {
			return err
		}
		res[i] = r
	}
	p99, err := stats.Quantile(res, 0.99)
	if err != nil {
		return err
	}
	thr := s.Threshold
	if thr <= 0 {
		thr = 1
	}
	s.alarm = p99 * thr
	if s.alarm == 0 {
		s.alarm = 1e-9
	}
	return nil
}

// Score returns the residual ratio for one vector; values above 1 are
// anomalous.
func (s *Subspace) Score(v []float64) (float64, error) {
	if s.alarm == 0 {
		return 0, errors.New("anomaly: subspace not fitted")
	}
	r, err := s.pca.ResidualNorm(v, s.k)
	if err != nil {
		return 0, err
	}
	return r / s.alarm, nil
}

// DetectRows scores every row of m and returns the anomalous ones.
func (s *Subspace) DetectRows(m *ml.Matrix) ([]Event, error) {
	var out []Event
	for i := 0; i < m.Rows; i++ {
		sc, err := s.Score(m.Row(i))
		if err != nil {
			return nil, err
		}
		if sc > 1 {
			out = append(out, Event{Index: i, Score: sc})
		}
	}
	return out, nil
}

// Components returns the number of retained principal components.
func (s *Subspace) Components() int { return s.k }
