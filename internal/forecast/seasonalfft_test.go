package forecast

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// pulseTrain builds a square-pulse signal: base + amp during the first
// duty*period samples of every cycle, plus gaussian noise.
func pulseTrain(n, period int, duty, base, amp, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		v := base
		if float64(i%period) < duty*float64(period) {
			v += amp
		}
		out[i] = v + rng.NormFloat64()*noise
	}
	return out
}

func TestSeasonalFFTDetectsPulsePeriod(t *testing.T) {
	hist := pulseTrain(2100, 300, 0.3, 2000, 2500, 60, 1)
	var sf SeasonalFFT
	if err := sf.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if p := sf.DetectedPeriod(); p < 294 || p > 306 {
		t.Fatalf("detected period %d, want ~300", p)
	}
	// The forecast must reproduce the pulse: high during duty, low after.
	pred := sf.Forecast(300)
	// Forecast index i corresponds to absolute sample 2100+i; cycle phase
	// = (2100+i) mod 300 = i (2100 = 7*300).
	var hi, lo float64
	var nHi, nLo int
	for i, v := range pred {
		phase := float64(i%300) / 300
		switch {
		case phase > 0.05 && phase < 0.25: // safely inside the pulse
			hi += v
			nHi++
		case phase > 0.5 && phase < 0.9: // safely outside
			lo += v
			nLo++
		}
	}
	hi /= float64(nHi)
	lo /= float64(nLo)
	if hi-lo < 2000 {
		t.Fatalf("forecast pulse amplitude %.0f, want ~2500", hi-lo)
	}
}

func TestSeasonalFFTRobustToOneShiftedCycle(t *testing.T) {
	// Six clean cycles plus one cycle whose pulse arrives late: the median
	// profile must keep sharp edges.
	period := 300
	hist := pulseTrain(7*period, period, 0.3, 1000, 2000, 30, 2)
	// Shift cycle 3's pulse by 40% of the period.
	for i := 0; i < period; i++ {
		idx := 3*period + i
		v := 1000.0
		if float64((i+120)%period) < 0.3*float64(period) {
			v += 2000
		}
		hist[idx] = v
	}
	var sf SeasonalFFT
	if err := sf.Fit(hist); err != nil {
		t.Fatal(err)
	}
	p := sf.DetectedPeriod()
	if p < 294 || p > 306 {
		t.Fatalf("detected period %d, want ~300", p)
	}
	pred := sf.Forecast(period)
	// The median profile must keep the pulse plateau high and the gap low
	// despite the corrupted cycle (sampled away from the edges, where a
	// few samples of period error are tolerable).
	mid := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += pred[i]
		}
		return s / float64(hi-lo)
	}
	if plateau := mid(20, 70); plateau < 2500 {
		t.Fatalf("pulse plateau washed out: %.0f", plateau)
	}
	if gap := mid(150, 260); gap > 1500 {
		t.Fatalf("pulse gap leaked: %.0f", gap)
	}
}

func TestSeasonalFFTShortSeries(t *testing.T) {
	var sf SeasonalFFT
	if err := sf.Fit(make([]float64, 8)); err != ErrShortSeries {
		t.Fatalf("short fit err = %v", err)
	}
}

func TestSeasonalFFTConstantSeries(t *testing.T) {
	hist := make([]float64, 256)
	for i := range hist {
		hist[i] = 42
	}
	var sf SeasonalFFT
	if err := sf.Fit(hist); err != nil {
		t.Fatal(err)
	}
	for _, v := range sf.Forecast(16) {
		if math.Abs(v-42) > 1e-9 {
			t.Fatalf("constant forecast = %v", v)
		}
	}
}

func TestSeasonalFFTBacktestBeatsNaiveOnPeriodicSignal(t *testing.T) {
	hist := pulseTrain(2400, 200, 0.4, 500, 800, 20, 3)
	scores, err := Compare(hist, 1600, 200, 200, &SeasonalFFT{}, &Naive{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].MAE >= scores[1].MAE {
		t.Fatalf("seasonal-fft MAE %.1f should beat naive %.1f on pulses",
			scores[0].MAE, scores[1].MAE)
	}
}

func TestCyclicMedian(t *testing.T) {
	// Two cycles of [1 2 3], one corrupt cycle [100 100 100]: median wins.
	xs := []float64{1, 2, 3, 1, 2, 3, 100, 100, 100}
	got := cyclicMedian(xs, 3)
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cyclicMedian = %v", got)
		}
	}
	// Even bucket count averages the middle pair.
	xs2 := []float64{1, 3, 1, 3} // period 1: bucket [1 3 1 3] -> median 2
	if m := cyclicMedian(xs2, 1); m[0] != 2 {
		t.Fatalf("even median = %v", m)
	}
}

// TestCyclicMedianIsPerPhaseSort: cyclicMedian's one-buffer layout answers
// what sorting each phase's own slice answers, bit for bit, for periods
// that divide the series and ones that leave short phases or none at all.
func TestCyclicMedianIsPerPhaseSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := make([]float64, 97)
	for i := range xs {
		xs[i] = math.Round(rng.NormFloat64()*4) / 2 // ties, and -0 beside 0
	}
	xs[5], xs[40] = math.Copysign(0, -1), 0
	for _, p := range []int{1, 2, 7, 24, 96, 97, 120} {
		got := cyclicMedian(xs, p)
		for i := 0; i < p; i++ {
			var phase []float64
			for j := i; j < len(xs); j += p {
				phase = append(phase, xs[j])
			}
			want := 0.0
			if n := len(phase); n > 0 {
				sort.Float64s(phase)
				if want = phase[n/2]; n%2 == 0 {
					want = (phase[n/2-1] + phase[n/2]) / 2
				}
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("period %d, phase %d: %v, want %v", p, i, got[i], want)
			}
		}
	}
}

func TestSeasonalValError(t *testing.T) {
	xs := pulseTrain(1200, 100, 0.5, 0, 10, 0.1, 4)
	right := seasonalValError(xs, 900, 100)
	wrong := seasonalValError(xs, 900, 73)
	if right >= wrong {
		t.Fatalf("true period should validate better: %.3f vs %.3f", right, wrong)
	}
	if !math.IsInf(seasonalValError(xs, 50, 100), 1) {
		t.Fatal("cut <= period should be infeasible")
	}
}

func TestACFAt(t *testing.T) {
	xs := pulseTrain(1000, 50, 0.5, 0, 1, 0, 5)
	if a := acfAt(xs, 50); a < 0.9 {
		t.Fatalf("acf at true period = %v", a)
	}
	if a := acfAt(xs, 25); a > 0 {
		t.Fatalf("acf at half period should be negative for 50%% duty: %v", a)
	}
	if !math.IsInf(acfAt(xs, 2000), -1) {
		t.Fatal("lag beyond series should be -inf")
	}
	flat := make([]float64, 100)
	if acfAt(flat, 10) != 0 {
		t.Fatal("zero-variance acf should be 0")
	}
}

func TestSeasonalFFTName(t *testing.T) {
	if (&SeasonalFFT{}).Name() != "seasonal-fft" {
		t.Fatal("name")
	}
}
