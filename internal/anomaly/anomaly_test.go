package anomaly

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
)

// spikedSeries returns n gaussian samples with spikes injected at the given
// indices.
func spikedSeries(n int, seed int64, spikes map[int]float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 50 + rng.NormFloat64()
	}
	for i, v := range spikes {
		xs[i] = v
	}
	return xs
}

func hasIndex(events []Event, idx int) bool {
	for _, e := range events {
		if e.Index == idx {
			return true
		}
	}
	return false
}

func TestZScoreDetectsSpike(t *testing.T) {
	xs := spikedSeries(300, 1, map[int]float64{200: 120})
	d := ZScore{Window: 60, Threshold: 4}
	events := d.Detect(xs)
	if !hasIndex(events, 200) {
		t.Fatalf("spike not detected: %v", events)
	}
	for _, e := range events {
		if e.Score <= 1 {
			t.Fatalf("reported event with score <= 1: %+v", e)
		}
	}
	// Clean data should produce (almost) nothing at threshold 4.
	clean := spikedSeries(300, 2, nil)
	if evs := d.Detect(clean); len(evs) > 2 {
		t.Fatalf("too many false positives: %v", evs)
	}
}

func TestZScoreNeedsFullWindow(t *testing.T) {
	d := ZScore{Window: 100, Threshold: 3}
	if evs := d.Detect(make([]float64, 50)); evs != nil {
		t.Fatalf("no events expected before window fills, got %v", evs)
	}
}

func TestMADDetectsOutliersDespiteContamination(t *testing.T) {
	// 10% contamination: MAD still flags them all.
	xs := spikedSeries(100, 3, map[int]float64{
		5: 500, 15: 510, 25: 490, 35: 505, 45: 495,
		55: 500, 65: 508, 75: 492, 85: 501, 95: 499,
	})
	d := MAD{}
	events := d.Detect(xs)
	for _, idx := range []int{5, 15, 25, 35, 45, 55, 65, 75, 85, 95} {
		if !hasIndex(events, idx) {
			t.Fatalf("outlier at %d missed: %v", idx, events)
		}
	}
	if len(events) != 10 {
		t.Fatalf("false positives: %d events", len(events))
	}
}

func TestMADDegenerate(t *testing.T) {
	d := MAD{}
	if evs := d.Detect([]float64{1, 1}); evs != nil {
		t.Fatal("short input should yield nil")
	}
	if evs := d.Detect([]float64{5, 5, 5, 5, 5}); evs != nil {
		t.Fatal("constant input should yield nil")
	}
}

func TestIQRFences(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100, -100}
	d := IQR{}
	events := d.Detect(xs)
	if !hasIndex(events, 8) || !hasIndex(events, 9) {
		t.Fatalf("extremes not flagged: %v", events)
	}
	if hasIndex(events, 4) {
		t.Fatal("median flagged")
	}
	if evs := (&IQR{}).Detect([]float64{1, 1, 1, 1, 1}); evs != nil {
		t.Fatal("zero-IQR input should yield nil")
	}
}

// TestCUSUMAlarmsCountsDetect: Alarms is len(Detect) on drifting,
// stationary, short and constant series, with and without defaults.
func TestCUSUMAlarmsCountsDetect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	drift := make([]float64, 720)
	for i := range drift {
		drift[i] = 200 + float64(i)*0.05 + rng.NormFloat64()*4
	}
	for _, d := range []CUSUM{{}, {Baseline: 30, Slack: 0.5, H: 8}, {Baseline: 100, H: 2}} {
		for _, xs := range [][]float64{drift, spikedSeries(400, 5, map[int]float64{300: 90}), drift[:20], make([]float64, 100)} {
			if got, want := d.Alarms(xs), len(d.Detect(xs)); got != want {
				t.Fatalf("%+v over %d samples: Alarms %d, Detect found %d", d, len(xs), got, want)
			}
		}
	}
}

func TestCUSUMDetectsLevelShift(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 400)
	for i := range xs {
		base := 10.0
		if i >= 200 {
			base = 11.5 // 1.5 sigma shift, too small for point detectors
		}
		xs[i] = base + rng.NormFloat64()
	}
	d := CUSUM{Baseline: 100}
	events := d.Detect(xs)
	if len(events) == 0 {
		t.Fatal("level shift not detected")
	}
	first := events[0].Index
	if first < 200 || first > 260 {
		t.Fatalf("first alarm at %d, want shortly after 200", first)
	}
	// Stationary series: no alarms.
	flat := spikedSeries(400, 5, nil)
	if evs := d.Detect(flat); len(evs) > 0 {
		t.Fatalf("false alarms on stationary series: %v", evs)
	}
}

func TestEWMAChartDetectsDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 300)
	for i := range xs {
		drift := 0.0
		if i >= 150 {
			drift = float64(i-150) * 0.05
		}
		xs[i] = 20 + drift + rng.NormFloat64()*0.5
	}
	d := EWMAChart{Baseline: 100}
	events := d.Detect(xs)
	if len(events) == 0 {
		t.Fatal("drift not detected")
	}
	if events[0].Index < 150 {
		t.Fatalf("alarm before drift began: %d", events[0].Index)
	}
}

func TestEnsembleQuorum(t *testing.T) {
	xs := spikedSeries(300, 7, map[int]float64{150: 200})
	ens := Ensemble{Members: []Detector{
		&ZScore{Window: 50, Threshold: 4},
		&MAD{},
		&IQR{K: 3},
	}}
	events := ens.Detect(xs)
	if !hasIndex(events, 150) {
		t.Fatalf("ensemble missed obvious spike: %v", events)
	}
	// Quorum higher than any point's votes suppresses everything.
	strict := Ensemble{Members: ens.Members, Quorum: 99}
	if evs := strict.Detect(xs); len(evs) != 0 {
		t.Fatalf("quorum 99 should suppress: %v", evs)
	}
	empty := Ensemble{}
	if evs := empty.Detect(xs); evs != nil {
		t.Fatal("empty ensemble should return nil")
	}
	// Events come back sorted by index.
	multi := spikedSeries(300, 8, map[int]float64{40: 300, 220: 280, 120: 290})
	evs := ens.Detect(multi)
	for i := 1; i < len(evs); i++ {
		if evs[i].Index <= evs[i-1].Index {
			t.Fatal("ensemble events not sorted")
		}
	}
}

func TestSubspaceDetector(t *testing.T) {
	// Healthy data: x1 = x0 + small noise (strong correlation).
	rng := rand.New(rand.NewSource(9))
	n := 400
	train := ml.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		base := rng.NormFloat64() * 10
		train.Set(i, 0, base)
		train.Set(i, 1, base+rng.NormFloat64()*0.3)
		train.Set(i, 2, rng.NormFloat64())
	}
	var s Subspace
	if err := s.Fit(train); err != nil {
		t.Fatal(err)
	}
	// A point violating the correlation has a big residual even though each
	// coordinate is individually in range.
	bad := []float64{8, -8, 0}
	good := []float64{8, 8.1, 0.5}
	sb, err := s.Score(bad)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := s.Score(good)
	if err != nil {
		t.Fatal(err)
	}
	if sb <= 1 {
		t.Fatalf("correlation break not anomalous: score %v", sb)
	}
	if sg > 1 {
		t.Fatalf("healthy point flagged: score %v", sg)
	}
	test := ml.NewMatrix(2, 3)
	copy(test.Row(0), good)
	copy(test.Row(1), bad)
	events, err := s.DetectRows(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Index != 1 {
		t.Fatalf("DetectRows = %v", events)
	}
	if s.Components() < 1 {
		t.Fatal("no components retained")
	}
}

func TestSubspaceValidation(t *testing.T) {
	var s Subspace
	if _, err := s.Score([]float64{1}); err == nil {
		t.Fatal("unfitted Score should error")
	}
	if err := s.Fit(ml.NewMatrix(2, 2)); err == nil {
		t.Fatal("too few rows should error")
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	metrics := [][]float64{
		{1, 2, 3, 4, 5},
		{10, 20, 30, 40, 50},
	}
	fp, err := MakeFingerprint("healthy", metrics)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Vector) != 6 {
		t.Fatalf("vector len = %d", len(fp.Vector))
	}
	if fp.Vector[1] != 3 || fp.Vector[4] != 30 { // medians
		t.Fatalf("vector = %v", fp.Vector)
	}
	if _, err := MakeFingerprint("x", [][]float64{{}}); err == nil {
		t.Fatal("empty metric should error")
	}
}

func TestFingerprintIndexMatch(t *testing.T) {
	mk := func(label string, scale float64) Fingerprint {
		fp, _ := MakeFingerprint(label, [][]float64{
			{scale * 1, scale * 2, scale * 3},
			{scale * 10, scale * 20, scale * 30},
		})
		return fp
	}
	idx, err := NewFingerprintIndex([]Fingerprint{
		mk("healthy", 1), mk("overload", 5), mk("thermal", 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Size() != 3 {
		t.Fatal("Size")
	}
	probe := mk("", 4.8)
	label, dist, err := idx.Match(probe)
	if err != nil {
		t.Fatal(err)
	}
	if label != "overload" {
		t.Fatalf("matched %q at %v", label, dist)
	}
	exact := mk("", 10)
	if label, dist, _ := idx.Match(exact); label != "thermal" || dist > 1e-9 {
		t.Fatalf("exact match = %q, %v", label, dist)
	}
	if _, _, err := idx.Match(Fingerprint{Vector: []float64{1}}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestFingerprintIndexValidation(t *testing.T) {
	if _, err := NewFingerprintIndex(nil); err == nil {
		t.Fatal("empty library should error")
	}
	a, _ := MakeFingerprint("a", [][]float64{{1, 2}})
	b, _ := MakeFingerprint("b", [][]float64{{1, 2}, {3, 4}})
	if _, err := NewFingerprintIndex([]Fingerprint{a, b}); err == nil {
		t.Fatal("mixed dimensions should error")
	}
}

func TestDetectorNames(t *testing.T) {
	ds := []Detector{&ZScore{}, &MAD{}, &IQR{}, &CUSUM{}, &EWMAChart{}, &Ensemble{}}
	seen := map[string]bool{}
	for _, d := range ds {
		n := d.Name()
		if n == "" || seen[n] {
			t.Fatalf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestScoresAreFinite(t *testing.T) {
	xs := spikedSeries(500, 11, map[int]float64{100: 1e6, 300: -1e6})
	for _, d := range []Detector{&ZScore{}, &MAD{}, &IQR{}, &CUSUM{}, &EWMAChart{}} {
		for _, e := range d.Detect(xs) {
			if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
				t.Fatalf("%s produced non-finite score: %+v", d.Name(), e)
			}
		}
	}
}
