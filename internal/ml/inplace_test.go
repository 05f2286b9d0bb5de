package ml

import (
	"math"
	"math/rand"
	"testing"
)

// TestApplyIsTransform: Apply scales in place with Transform's arithmetic,
// so the two agree bit for bit, on ±0, NaN, ±Inf, denormals and their
// quotients by a denormal std included.
func TestApplyIsTransform(t *testing.T) {
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	x, err := MatrixFromRows([][]float64{
		{0, negZero, math.NaN(), denorm},
		{negZero, 0, -denorm, math.Inf(1)},
		{3 * denorm, math.NaN(), math.Inf(-1), 1e308},
		{-1e-310, 2.5, negZero, -7},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []StandardScaler{
		{Mean: []float64{0, negZero, 1, denorm}, Std: []float64{1, denorm, math.Inf(1), 2 * denorm}},
		{Mean: []float64{negZero, math.NaN(), -denorm, 0}, Std: []float64{1e-300, 1, 3, 0.1}},
	} {
		want := sc.Transform(x)
		got := x.Clone()
		sc.Apply(got)
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("scaler %+v, element %d: Apply %v (%#x), Transform %v (%#x)", sc, i, v, math.Float64bits(v), want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestSplitInPlaceIsSelectRows: SplitInPlace's views hold exactly the rows
// and labels SelectRows and SelectFloats copy out of TrainTestSplit's index
// sets, in the same order.
func TestSplitInPlaceIsSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 101, 1000} {
		x := NewMatrix(n, 3)
		y := make([]float64, n)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = float64(rng.Intn(2))
		}
		trainIdx, testIdx := TrainTestSplit(n, 0.3, 7)
		wantTrain, wantTest := SelectRows(x, trainIdx), SelectRows(x, testIdx)
		wantTrainY, wantTestY := SelectFloats(y, trainIdx), SelectFloats(y, testIdx)

		train, test, trainY, testY := SplitInPlace(x, y, 0.3, 7)
		same := func(name string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("n=%d %s: %d values, want %d", n, name, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d %s[%d] = %v, want %v", n, name, i, got[i], want[i])
				}
			}
		}
		if train.Rows != len(trainIdx) || test.Rows != len(testIdx) || train.Cols != 3 || test.Cols != 3 {
			t.Fatalf("n=%d: train %dx%d, test %dx%d", n, train.Rows, train.Cols, test.Rows, test.Cols)
		}
		same("train", train.Data, wantTrain.Data)
		same("test", test.Data, wantTest.Data)
		same("trainY", trainY, wantTrainY)
		same("testY", testY, wantTestY)
	}
}

// TestResidualNormWideAndNarrow: ResidualNorm centres a row of up to eight
// columns on the stack and a wider one on the heap; both must be the plain
// projection's norm.
func TestResidualNormWideAndNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 8, 9, 12} {
		x := NewMatrix(200, d)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * float64(1+i%d)
		}
		var p PCA
		if err := p.Fit(x); err != nil {
			t.Fatal(err)
		}
		q := x.Row(17)
		for k := 0; k < d; k++ {
			var s float64
			for c := k; c < d; c++ {
				var proj float64
				for j, v := range q {
					proj += p.Components.At(c, j) * (v - p.Mean[j])
				}
				s += proj * proj
			}
			got, err := p.ResidualNorm(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if want := math.Sqrt(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d k=%d: ResidualNorm %v, want %v", d, k, got, want)
			}
		}
	}
	var p PCA
	p.Components, p.Mean = NewMatrix(4, 4), make([]float64, 4)
	q := []float64{1, 2, 3, 4}
	if n := testing.AllocsPerRun(100, func() { _, _ = p.ResidualNorm(q, 1) }); n != 0 {
		t.Fatalf("ResidualNorm over 4 columns allocates %v times a call, want 0", n)
	}
}
