package forecast

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
	"sync"
)

// FFT computes the radix-2 Cooley-Tukey fast Fourier transform of x.
// The input length must be a power of two (see NextPow2/PadPow2).
func FFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, errors.New("forecast: FFT length must be a power of two")
	}
	out := append([]complex128(nil), x...)
	fftInPlace(out, false)
	return out, nil
}

// IFFT computes the inverse FFT (normalized by 1/N).
func IFFT(x []complex128) ([]complex128, error) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return nil, errors.New("forecast: IFFT length must be a power of two")
	}
	out := append([]complex128(nil), x...)
	fftInPlace(out, true)
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

func fftInPlace(a []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := a[i+j]
				v := a[i+j+length/2] * w
				a[i+j] = u + v
				a[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fftScratch pools the complex work buffers of the internal spectrum
// paths (DominantPeriods, FFTForecaster.Fit), which transform in place and
// never hand the buffer to callers. Periodic re-fits during long forecast
// sweeps therefore stop allocating an FFT-sized slice per call.
var fftScratch = sync.Pool{New: func() any { return new([]complex128) }}

// pooledSpectrum pads xs (shifted by -offset) into a pooled power-of-two
// buffer and transforms it in place. Release the buffer with
// releaseSpectrum once the spectrum has been consumed.
func pooledSpectrum(xs []float64, offset float64) *[]complex128 {
	n := NextPow2(len(xs))
	bp := fftScratch.Get().(*[]complex128)
	buf := *bp
	if cap(buf) < n {
		buf = make([]complex128, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = 0
	}
	for i, x := range xs {
		buf[i] = complex(x-offset, 0)
	}
	fftInPlace(buf, false)
	*bp = buf
	return bp
}

func releaseSpectrum(bp *[]complex128) { fftScratch.Put(bp) }

// spectrumPeaks extracts every positive-frequency component of a spectrum
// of sampleCount real samples, strongest first.
func spectrumPeaks(spec []complex128, sampleCount int) []SpectrumPeak {
	n := len(spec)
	half := n / 2
	peaks := make([]SpectrumPeak, 0, half-1)
	for bin := 1; bin < half; bin++ {
		c := spec[bin]
		freq := float64(bin) / float64(n)
		peaks = append(peaks, SpectrumPeak{
			Bin:       bin,
			Frequency: freq,
			Period:    1 / freq,
			Amplitude: 2 * cmplx.Abs(c) / float64(sampleCount),
			Phase:     cmplx.Phase(c),
		})
	}
	sort.Slice(peaks, func(a, b int) bool {
		if peaks[a].Amplitude != peaks[b].Amplitude {
			return peaks[a].Amplitude > peaks[b].Amplitude
		}
		return peaks[a].Bin < peaks[b].Bin
	})
	return peaks
}

// SpectrumPeak describes one dominant frequency component of a real signal.
type SpectrumPeak struct {
	Bin       int     // FFT bin index (1..N/2-1); bin 0 (DC) is excluded
	Frequency float64 // cycles per sample
	Period    float64 // samples per cycle (1/Frequency)
	Amplitude float64 // amplitude of the sinusoidal component
	Phase     float64 // phase in radians at sample 0
}

// DominantPeriods returns the k strongest periodic components of xs (DC
// excluded), strongest first. This is the analysis LLNL applied to site
// power history to find recurring spike patterns.
func DominantPeriods(xs []float64, k int) ([]SpectrumPeak, error) {
	if len(xs) < 4 {
		return nil, ErrShortSeries
	}
	if k <= 0 {
		k = 3
	}
	bp := pooledSpectrum(xs, 0)
	peaks := spectrumPeaks(*bp, len(xs))
	releaseSpectrum(bp)
	if k > len(peaks) {
		k = len(peaks)
	}
	return peaks[:k], nil
}

// SeasonalFFT forecasts by (1) identifying the dominant period with the
// FFT, (2) refining it against the autocorrelation function, and (3)
// extrapolating the cyclic average profile at that period. This matches
// how LLNL applied Fourier analysis to site power (§V-C of the paper):
// the transform finds the recurring spike pattern; the pattern itself is
// the forecast. Unlike a truncated sinusoid reconstruction it preserves
// sharp pulse edges, which is what threshold-crossing notification needs.
type SeasonalFFT struct {
	// MaxPeriod bounds the detected period in samples (default: half the
	// history).
	MaxPeriod int

	period  int
	profile []float64
	phase   int
}

// Name implements Forecaster.
func (sf *SeasonalFFT) Name() string { return "seasonal-fft" }

// DetectedPeriod returns the period chosen at Fit, in samples.
func (sf *SeasonalFFT) DetectedPeriod() int { return sf.period }

// Fit implements Forecaster.
func (sf *SeasonalFFT) Fit(history []float64) error {
	if len(history) < 16 {
		return ErrShortSeries
	}
	maxP := sf.MaxPeriod
	if maxP <= 0 || maxP > len(history)/2 {
		maxP = len(history) / 2
	}
	peaks, err := DominantPeriods(history, 12)
	if err != nil {
		return err
	}
	// Zero padding smears spectral lines, so every strong spectral peak is
	// only a candidate. Candidates are scored by how well their cyclic
	// profile, built on the first 75% of the history, predicts the held-out
	// tail — the criterion the forecast is actually used for — and the best
	// is refined on a ±12% grid with the same score.
	// The validation valley at the true period is narrow (one sample of
	// period error compounds across cycles), so the ±12% grid must be
	// walked around every candidate, not only the best-scoring one.
	cut := len(history) * 3 / 4
	best, bestErr := 0, math.Inf(1)
	consider := func(p int) {
		if p < 2 || p > maxP {
			return
		}
		if e := seasonalValError(history, cut, p); e < bestErr {
			best, bestErr = p, e
		}
	}
	refineAround := func(candidate int) {
		lo := int(float64(candidate) * 0.88)
		hi := int(float64(candidate) * 1.12)
		for lag := lo; lag <= hi; lag++ {
			consider(lag)
		}
	}
	for _, p := range peaks {
		refineAround(int(math.Round(p.Period)))
	}
	if best == 0 {
		refineAround(maxP)
		if best == 0 {
			best = maxP
			if best < 2 {
				best = 2
			}
		}
	}
	sf.period = best
	// Cyclic median profile: robust to the occasional cycle whose pattern
	// ran late (a queued campaign), which would smear a mean profile's
	// edges and hide threshold crossings.
	sf.profile = cyclicMedian(history, best)
	sf.phase = len(history) % best
	return nil
}

// cyclicMedian returns the per-phase median over all cycles of length p.
// The phases' values are laid out one phase after another in one buffer,
// each in cycle order, and each run is sorted where it lies.
func cyclicMedian(xs []float64, p int) []float64 {
	buf := make([]float64, 0, len(xs))
	out := make([]float64, p)
	for i := range out {
		start := len(buf)
		for j := i; j < len(xs); j += p {
			buf = append(buf, xs[j])
		}
		b := buf[start:]
		n := len(b)
		if n == 0 {
			continue
		}
		sort.Float64s(b)
		if n%2 == 1 {
			out[i] = b[n/2]
		} else {
			out[i] = (b[n/2-1] + b[n/2]) / 2
		}
	}
	return out
}

// seasonalValError scores a candidate period: build the cyclic median
// profile on xs[:cut] and return the mean squared error predicting
// xs[cut:].
func seasonalValError(xs []float64, cut, period int) float64 {
	if cut <= period || cut >= len(xs) {
		return math.Inf(1)
	}
	profile := cyclicMedian(xs[:cut], period)
	var mse float64
	for i := cut; i < len(xs); i++ {
		d := xs[i] - profile[i%period]
		mse += d * d
	}
	return mse / float64(len(xs)-cut)
}

func acfAt(xs []float64, lag int) float64 {
	if lag >= len(xs) {
		return math.Inf(-1)
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var num, den float64
	for i := range xs {
		den += (xs[i] - mean) * (xs[i] - mean)
	}
	if den == 0 {
		return 0
	}
	for i := 0; i+lag < len(xs); i++ {
		num += (xs[i] - mean) * (xs[i+lag] - mean)
	}
	return num / den
}

// Forecast implements Forecaster.
func (sf *SeasonalFFT) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		out[i] = sf.profile[(sf.phase+i)%sf.period]
	}
	return out
}

// FFTForecaster extrapolates a signal as mean + the K dominant sinusoids,
// reproducing the Fourier-based power forecasting LLNL uses to anticipate
// ±750 kW swings for its utility (paper §V-C).
type FFTForecaster struct {
	K int // number of sinusoidal components (default 3 when zero)

	mean   float64
	peaks  []SpectrumPeak
	origin int // number of fitted samples; forecasts start at this index
	padN   int // FFT length used at fit time
}

// Name implements Forecaster.
func (ff *FFTForecaster) Name() string { return "fft" }

// Fit implements Forecaster.
func (ff *FFTForecaster) Fit(history []float64) error {
	if len(history) < 8 {
		return ErrShortSeries
	}
	k := ff.K
	if k <= 0 {
		k = 3
	}
	var mean float64
	for _, x := range history {
		mean += x
	}
	mean /= float64(len(history))
	// Centering happens inside the pad loop: no centred copy, and the
	// complex work buffer comes from the shared pool.
	bp := pooledSpectrum(history, mean)
	n := len(*bp)
	peaks := spectrumPeaks(*bp, len(history))
	releaseSpectrum(bp)
	if k > len(peaks) {
		k = len(peaks)
	}
	ff.mean = mean
	ff.peaks = peaks[:k]
	ff.origin = len(history)
	ff.padN = n
	return nil
}

// Forecast implements Forecaster.
func (ff *FFTForecaster) Forecast(h int) []float64 {
	out := make([]float64, h)
	for i := range out {
		t := float64(ff.origin + i)
		v := ff.mean
		for _, p := range ff.peaks {
			v += p.Amplitude * math.Cos(2*math.Pi*p.Frequency*t+p.Phase)
		}
		out[i] = v
	}
	return out
}
