package forecast

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNaive(t *testing.T) {
	var n Naive
	if err := n.Fit(nil); err != ErrShortSeries {
		t.Fatal("empty fit should error")
	}
	if err := n.Fit([]float64{1, 2, 7}); err != nil {
		t.Fatal(err)
	}
	out := n.Forecast(3)
	for _, v := range out {
		if v != 7 {
			t.Fatalf("naive forecast = %v", out)
		}
	}
	if n.Name() != "naive" {
		t.Fatal("name")
	}
}

func TestSeasonalNaive(t *testing.T) {
	s := SeasonalNaive{Period: 3}
	if err := s.Fit([]float64{1, 2}); err != ErrShortSeries {
		t.Fatal("short fit should error")
	}
	if err := s.Fit([]float64{9, 9, 9, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	out := s.Forecast(5)
	want := []float64{1, 2, 3, 1, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("forecast = %v", out)
		}
	}
	bad := SeasonalNaive{}
	if err := bad.Fit([]float64{1}); err == nil {
		t.Fatal("period 0 should error")
	}
}

func TestSESConvergesToConstant(t *testing.T) {
	s := SES{Alpha: 0.5}
	hist := make([]float64, 50)
	for i := range hist {
		hist[i] = 42
	}
	if err := s.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if out := s.Forecast(2); !approx(out[0], 42, 1e-9) || !approx(out[1], 42, 1e-9) {
		t.Fatalf("SES forecast = %v", out)
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	var h Holt
	hist := make([]float64, 100)
	for i := range hist {
		hist[i] = 10 + 2*float64(i)
	}
	if err := h.Fit(hist); err != nil {
		t.Fatal(err)
	}
	out := h.Forecast(5)
	for i, v := range out {
		want := 10 + 2*float64(99+i+1)
		if !approx(v, want, 1.0) {
			t.Fatalf("holt[%d] = %v, want ~%v", i, v, want)
		}
	}
	if err := h.Fit([]float64{1}); err != ErrShortSeries {
		t.Fatal("short fit should error")
	}
}

func TestHoltWintersSeasonal(t *testing.T) {
	// Clean diurnal-like signal: period 24, linear drift.
	period := 24
	hist := make([]float64, period*10)
	for i := range hist {
		hist[i] = 100 + 0.05*float64(i) + 20*math.Sin(2*math.Pi*float64(i)/float64(period))
	}
	hw := HoltWinters{Period: period}
	if err := hw.Fit(hist); err != nil {
		t.Fatal(err)
	}
	out := hw.Forecast(period)
	for i, v := range out {
		idx := len(hist) + i
		want := 100 + 0.05*float64(idx) + 20*math.Sin(2*math.Pi*float64(idx)/float64(period))
		if math.Abs(v-want) > 3 {
			t.Fatalf("hw[%d] = %v, want ~%v", i, v, want)
		}
	}
}

func TestHoltWintersValidation(t *testing.T) {
	hw := HoltWinters{Period: 1}
	if err := hw.Fit(make([]float64, 100)); err == nil {
		t.Fatal("period 1 should error")
	}
	hw2 := HoltWinters{Period: 24}
	if err := hw2.Fit(make([]float64, 30)); err != ErrShortSeries {
		t.Fatal("short history should error")
	}
}

func TestARRecoversAR1(t *testing.T) {
	// Simulate x_t = 0.8 x_{t-1} + noise.
	rng := rand.New(rand.NewSource(1))
	n := 5000
	hist := make([]float64, n)
	for i := 1; i < n; i++ {
		hist[i] = 0.8*hist[i-1] + rng.NormFloat64()
	}
	ar := AR{P: 1}
	if err := ar.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ar.Phi[0]-0.8) > 0.05 {
		t.Fatalf("phi = %v, want ~0.8", ar.Phi)
	}
	// Forecast decays toward the mean.
	out := ar.Forecast(50)
	if math.Abs(out[49]) > math.Abs(out[0]) {
		t.Fatalf("AR forecast should decay: %v ... %v", out[0], out[49])
	}
}

func TestARConstantSeries(t *testing.T) {
	ar := AR{P: 3}
	hist := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	if err := ar.Fit(hist); err != nil {
		t.Fatal(err)
	}
	out := ar.Forecast(4)
	for _, v := range out {
		if !approx(v, 5, 1e-9) {
			t.Fatalf("constant AR forecast = %v", out)
		}
	}
}

func TestARValidation(t *testing.T) {
	ar := AR{}
	if err := ar.Fit([]float64{1, 2, 3}); err == nil {
		t.Fatal("P=0 should error")
	}
	ar = AR{P: 5}
	if err := ar.Fit([]float64{1, 2}); err != ErrShortSeries {
		t.Fatal("short history should error")
	}
}

func TestDrift(t *testing.T) {
	var d Drift
	if err := d.Fit([]float64{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	out := d.Forecast(3)
	want := []float64{5, 6, 7}
	for i := range want {
		if !approx(out[i], want[i], 1e-9) {
			t.Fatalf("drift = %v", out)
		}
	}
}

func TestBacktestPerfectModel(t *testing.T) {
	// A constant series is perfectly predicted by naive.
	series := make([]float64, 100)
	for i := range series {
		series[i] = 3
	}
	s, err := Backtest(&Naive{}, series, 10, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.MAE != 0 || s.RMSE != 0 || s.N == 0 {
		t.Fatalf("score = %+v", s)
	}
}

func TestBacktestRanksModels(t *testing.T) {
	// On a strongly trending series, drift must beat naive.
	series := make([]float64, 200)
	rng := rand.New(rand.NewSource(2))
	for i := range series {
		series[i] = 5*float64(i) + rng.NormFloat64()
	}
	scores, err := Compare(series, 50, 10, 10, &Naive{}, &Drift{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[1].MAE >= scores[0].MAE {
		t.Fatalf("drift (%v) should beat naive (%v) on trend", scores[1].MAE, scores[0].MAE)
	}
}

func TestBacktestValidation(t *testing.T) {
	if _, err := Backtest(&Naive{}, []float64{1, 2}, 0, 1, 1); err == nil {
		t.Fatal("bad params should error")
	}
	if _, err := Backtest(&Naive{}, []float64{1, 2}, 10, 5, 1); err != ErrShortSeries {
		t.Fatal("short series should error")
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	spec, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := IFFT(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !approx(real(back[i]), real(x[i]), 1e-9) || !approx(imag(back[i]), imag(x[i]), 1e-9) {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back[i], x[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]complex128, 128)
	var timeEnergy float64
	for i := range x {
		v := rng.NormFloat64()
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	spec, _ := FFT(x)
	var freqEnergy float64
	for _, c := range spec {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= float64(len(x))
	if !approx(timeEnergy, freqEnergy, 1e-6) {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

func TestFFTValidation(t *testing.T) {
	if _, err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("non-power-of-two should error")
	}
	if _, err := IFFT(nil); err == nil {
		t.Fatal("empty should error")
	}
}

func TestNextPow2AndPad(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 64: 64, 65: 128}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestDominantPeriods(t *testing.T) {
	// Pure sinusoid with period 16 over 128 samples.
	n := 128
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 10 * math.Sin(2*math.Pi*float64(i)/16)
	}
	peaks, err := DominantPeriods(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(peaks[0].Period, 16, 1e-9) {
		t.Fatalf("dominant period = %v", peaks[0].Period)
	}
	if math.Abs(peaks[0].Amplitude-10) > 0.5 {
		t.Fatalf("amplitude = %v", peaks[0].Amplitude)
	}
	if _, err := DominantPeriods([]float64{1, 2}, 1); err != ErrShortSeries {
		t.Fatal("short input should error")
	}
}

func TestFFTForecasterPeriodicSignal(t *testing.T) {
	// Power-like signal: offset + two sinusoids; power-of-two history so the
	// spectral bins line up exactly.
	n := 512
	gen := func(i int) float64 {
		return 2000 + 400*math.Sin(2*math.Pi*float64(i)/64) + 150*math.Cos(2*math.Pi*float64(i)/32)
	}
	hist := make([]float64, n)
	for i := range hist {
		hist[i] = gen(i)
	}
	ff := FFTForecaster{K: 2}
	if err := ff.Fit(hist); err != nil {
		t.Fatal(err)
	}
	out := ff.Forecast(64)
	for i, v := range out {
		want := gen(n + i)
		if math.Abs(v-want) > 40 {
			t.Fatalf("fft forecast[%d] = %v, want ~%v", i, v, want)
		}
	}
	if err := (&FFTForecaster{}).Fit([]float64{1, 2, 3}); err != ErrShortSeries {
		t.Fatal("short fit should error")
	}
}

func TestBacktestFFTRunsEndToEnd(t *testing.T) {
	n := 400
	series := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range series {
		series[i] = 100 + 30*math.Sin(2*math.Pi*float64(i)/50) + rng.NormFloat64()*2
	}
	s, err := Backtest(&FFTForecaster{K: 3}, series, 256, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	if s.N == 0 || s.MAE > 30 {
		t.Fatalf("fft backtest = %+v", s)
	}
}
