package ml

import (
	"math"
	"math/rand"
	"testing"
)

// synthLinear builds y = 3*x0 - 2*x1 + 5 + noise.
func synthLinear(n int, noise float64, seed int64) (*Matrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64()*10)
		x.Set(i, 1, rng.Float64()*10)
		y[i] = 3*x.At(i, 0) - 2*x.At(i, 1) + 5 + rng.NormFloat64()*noise
	}
	return x, y
}

func TestLinearRegressionExact(t *testing.T) {
	x, y := synthLinear(200, 0, 1)
	var lr LinearRegression
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !approx(lr.Coef[0], 3, 1e-6) || !approx(lr.Coef[1], -2, 1e-6) || !approx(lr.Intercept, 5, 1e-6) {
		t.Fatalf("coef = %v, intercept = %v", lr.Coef, lr.Intercept)
	}
	if p := lr.Predict([]float64{1, 1}); !approx(p, 6, 1e-6) {
		t.Fatalf("Predict = %v", p)
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	x, y := synthLinear(2000, 1.0, 2)
	var lr LinearRegression
	if err := lr.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(lr.Coef[0]-3) > 0.1 || math.Abs(lr.Coef[1]+2) > 0.1 {
		t.Fatalf("coef = %v", lr.Coef)
	}
	pred := lr.PredictBatch(x)
	if r2 := R2(pred, y); r2 < 0.95 {
		t.Fatalf("R2 = %v", r2)
	}
}

func TestLinearRegressionRidgeShrinks(t *testing.T) {
	x, y := synthLinear(100, 0.5, 3)
	var ols, ridge LinearRegression
	ridge.Lambda = 1000
	if err := ols.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := ridge.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ridge.Coef[0]) >= math.Abs(ols.Coef[0]) {
		t.Fatalf("ridge should shrink: ols %v ridge %v", ols.Coef, ridge.Coef)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	var lr LinearRegression
	if err := lr.Fit(NewMatrix(2, 1), []float64{1}); err != ErrDimension {
		t.Fatal("dimension mismatch should error")
	}
	if err := lr.Fit(NewMatrix(0, 1), nil); err == nil {
		t.Fatal("empty fit should error")
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 400
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, rng.NormFloat64()+3)
			x.Set(i, 1, rng.NormFloat64()+3)
			y[i] = 1
		} else {
			x.Set(i, 0, rng.NormFloat64()-3)
			x.Set(i, 1, rng.NormFloat64()-3)
		}
	}
	lg := LogisticRegression{Epochs: 500, LearningRate: 0.5}
	if err := lg.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		if float64(lg.Predict(x.Row(i))) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.97 {
		t.Fatalf("accuracy = %v", acc)
	}
	if p := lg.PredictProba([]float64{5, 5}); p < 0.9 {
		t.Fatalf("proba(+) = %v", p)
	}
	if p := lg.PredictProba([]float64{-5, -5}); p > 0.1 {
		t.Fatalf("proba(-) = %v", p)
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %v", s)
	}
	if !approx(sigmoid(0), 0.5, 1e-12) {
		t.Fatal("sigmoid(0)")
	}
}

func TestStandardScaler(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{1, 100}, {2, 200}, {3, 300}})
	var sc StandardScaler
	sc.Fit(x)
	out := sc.Transform(x)
	for j := 0; j < 2; j++ {
		col := out.Col(j)
		var mean float64
		for _, v := range col {
			mean += v
		}
		if !approx(mean/3, 0, 1e-9) {
			t.Fatalf("column %d not centred: %v", j, col)
		}
	}
	// Constant column must not divide by zero.
	xc, _ := MatrixFromRows([][]float64{{5}, {5}, {5}})
	var sc2 StandardScaler
	sc2.Fit(xc)
	v := sc2.TransformVec([]float64{5})
	if math.IsNaN(v[0]) || math.IsInf(v[0], 0) {
		t.Fatalf("constant column transform = %v", v)
	}
	if x.At(0, 0) != 1 {
		t.Fatal("Transform mutated input")
	}
}

func TestKNNClassifier(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{
		{0, 0}, {0.1, 0.1}, {0.2, 0}, // class a
		{5, 5}, {5.1, 5}, {5, 5.2}, // class b
	})
	labels := []string{"a", "a", "a", "b", "b", "b"}
	knn := KNN{K: 3}
	if err := knn.FitClassifier(x, labels); err != nil {
		t.Fatal(err)
	}
	if got, _ := knn.Classify([]float64{0.05, 0.05}); got != "a" {
		t.Fatalf("Classify near a = %q", got)
	}
	if got, _ := knn.Classify([]float64{4.9, 5.1}); got != "b" {
		t.Fatalf("Classify near b = %q", got)
	}
	if _, err := knn.Regress([]float64{0, 0}); err == nil {
		t.Fatal("Regress on classifier should error")
	}
}

func TestKNNRegressor(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{0}, {1}, {2}, {3}})
	y := []float64{0, 10, 20, 30}
	knn := KNN{K: 2}
	if err := knn.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	// Exact match short-circuits.
	if v, _ := knn.Regress([]float64{2}); v != 20 {
		t.Fatalf("exact-match regress = %v", v)
	}
	// Midpoint of 1 and 2 weights both equally.
	if v, _ := knn.Regress([]float64{1.5}); !approx(v, 15, 1e-9) {
		t.Fatalf("midpoint regress = %v", v)
	}
	// K larger than the dataset degrades gracefully.
	big := KNN{K: 100}
	if err := big.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Regress([]float64{1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Classify([]float64{0}); err == nil {
		t.Fatal("Classify on regressor should error")
	}
}

func TestKMeansTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	x := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			x.Set(i, 0, rng.NormFloat64()+10)
			x.Set(i, 1, rng.NormFloat64()+10)
		} else {
			x.Set(i, 0, rng.NormFloat64()-10)
			x.Set(i, 1, rng.NormFloat64()-10)
		}
	}
	km := KMeans{K: 2, Seed: 42}
	assign, err := km.Fit(x)
	if err != nil {
		t.Fatal(err)
	}
	// All first-half points share a cluster; all second-half share the other.
	for i := 1; i < n/2; i++ {
		if assign[i] != assign[0] {
			t.Fatalf("first blob split at %d", i)
		}
	}
	for i := n/2 + 1; i < n; i++ {
		if assign[i] != assign[n/2] {
			t.Fatalf("second blob split at %d", i)
		}
	}
	if assign[0] == assign[n/2] {
		t.Fatal("blobs merged")
	}
	if km.Predict([]float64{10, 10}) != assign[0] {
		t.Fatal("Predict disagrees with assignment")
	}
	if km.Inertia <= 0 {
		t.Fatal("inertia should be positive for noisy blobs")
	}
}

func TestKMeansErrors(t *testing.T) {
	x := NewMatrix(2, 1)
	if _, err := (&KMeans{K: 0}).Fit(x); err == nil {
		t.Fatal("K=0 should error")
	}
	if _, err := (&KMeans{K: 3}).Fit(x); err == nil {
		t.Fatal("fewer points than clusters should error")
	}
	// Identical points: must not loop or panic.
	xi, _ := MatrixFromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	km := KMeans{K: 2, Seed: 1}
	if _, err := km.Fit(xi); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionTreeClassifier(t *testing.T) {
	// XOR-ish pattern needs depth 2.
	x, _ := MatrixFromRows([][]float64{
		{0, 0}, {0, 1}, {1, 0}, {1, 1},
		{0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1}, {0.9, 0.9},
	})
	y := []int{0, 1, 1, 0, 0, 1, 1, 0}
	var dt DecisionTree
	if err := dt.FitClassifier(x, y, 2); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		got, err := dt.Classify(x.Row(i))
		if err != nil || got != y[i] {
			t.Fatalf("row %d: got %d want %d (%v)", i, got, y[i], err)
		}
	}
	probs, err := dt.ClassProbs([]float64{0, 0})
	if err != nil || len(probs) != 2 || probs[0] < 0.99 {
		t.Fatalf("ClassProbs = %v, %v", probs, err)
	}
	if dt.Depth() < 2 {
		t.Fatalf("XOR should need depth >= 2, got %d", dt.Depth())
	}
}

func TestDecisionTreeRegressor(t *testing.T) {
	// Step function.
	x, _ := MatrixFromRows([][]float64{{1}, {2}, {3}, {10}, {11}, {12}})
	y := []float64{5, 5, 5, 50, 50, 50}
	var dt DecisionTree
	if err := dt.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	if v, _ := dt.Regress([]float64{2.5}); v != 5 {
		t.Fatalf("left regress = %v", v)
	}
	if v, _ := dt.Regress([]float64{11}); v != 50 {
		t.Fatalf("right regress = %v", v)
	}
	if _, err := dt.Classify([]float64{1}); err == nil {
		t.Fatal("Classify on regressor should error")
	}
}

func TestDecisionTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := NewMatrix(100, 1)
	y := make([]float64, 100)
	for i := range y {
		x.Set(i, 0, rng.Float64())
		y[i] = rng.Float64()
	}
	dt := DecisionTree{MaxDepth: 3}
	if err := dt.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	if dt.Depth() > 3 {
		t.Fatalf("depth %d exceeds MaxDepth", dt.Depth())
	}
}

func TestDecisionTreeValidation(t *testing.T) {
	x := NewMatrix(2, 1)
	var dt DecisionTree
	if err := dt.FitClassifier(x, []int{0, 5}, 2); err == nil {
		t.Fatal("out-of-range class should error")
	}
	if err := dt.FitClassifier(x, []int{0}, 2); err != ErrDimension {
		t.Fatal("dimension mismatch should error")
	}
	if err := dt.FitClassifier(x, []int{0, 0}, 1); err == nil {
		t.Fatal("single class should error")
	}
}

func TestRandomForestClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 300
	x := NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if x.At(i, 0)+x.At(i, 1) > 0 {
			y[i] = 1
		}
	}
	trainIdx, testIdx := TrainTestSplit(n, 0.3, 1)
	rf := RandomForest{Trees: 30, MaxDepth: 6, Seed: 11}
	if err := rf.FitClassifier(SelectRows(x, trainIdx), SelectInts(y, trainIdx), 2); err != nil {
		t.Fatal(err)
	}
	if rf.Size() != 30 {
		t.Fatalf("Size = %d", rf.Size())
	}
	pred := make([]int, len(testIdx))
	for i, r := range testIdx {
		p, err := rf.Classify(x.Row(r))
		if err != nil {
			t.Fatal(err)
		}
		pred[i] = p
	}
	if acc := Accuracy(pred, SelectInts(y, testIdx)); acc < 0.85 {
		t.Fatalf("forest accuracy = %v", acc)
	}
	probs, err := rf.ClassProbs(x.Row(testIdx[0]))
	if err != nil || !approx(probs[0]+probs[1], 1, 1e-9) {
		t.Fatalf("ClassProbs = %v, %v", probs, err)
	}
}

func TestRandomForestRegressor(t *testing.T) {
	x, y := synthLinear(400, 0.5, 8)
	rf := RandomForest{Trees: 25, MaxDepth: 8, Seed: 3}
	if err := rf.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		pred[i], _ = rf.Regress(x.Row(i))
	}
	if r2 := R2(pred, y); r2 < 0.9 {
		t.Fatalf("forest R2 = %v", r2)
	}
	if _, err := rf.Classify([]float64{0, 0}); err == nil {
		t.Fatal("Classify on regression forest should error")
	}
}

func TestRandomForestDeterminism(t *testing.T) {
	x, y := synthLinear(100, 1, 9)
	a := RandomForest{Trees: 10, Seed: 5}
	b := RandomForest{Trees: 10, Seed: 5}
	if err := a.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.FitRegressor(x, y); err != nil {
		t.Fatal(err)
	}
	q := []float64{5, 5}
	va, _ := a.Regress(q)
	vb, _ := b.Regress(q)
	if va != vb {
		t.Fatalf("same seed, different predictions: %v vs %v", va, vb)
	}
}

func TestGaussianNB(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 300
	x := NewMatrix(n, 3)
	y := make([]int, n)
	means := [][]float64{{0, 0, 0}, {4, 4, 0}, {0, 4, 4}}
	for i := 0; i < n; i++ {
		c := i % 3
		y[i] = c
		for j := 0; j < 3; j++ {
			x.Set(i, j, means[c][j]+rng.NormFloat64()*0.5)
		}
	}
	var nb GaussianNB
	if err := nb.Fit(x, y, 3); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		if c, _ := nb.Classify(x.Row(i)); c == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("NB accuracy = %v", acc)
	}
	p, err := nb.Proba(x.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
		sum += v
	}
	if !approx(sum, 1, 1e-9) {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestGaussianNBValidation(t *testing.T) {
	var nb GaussianNB
	if _, err := nb.Classify([]float64{1}); err == nil {
		t.Fatal("unfitted classify should error")
	}
	x := NewMatrix(2, 1)
	if err := nb.Fit(x, []int{0, 3}, 2); err == nil {
		t.Fatal("out-of-range class should error")
	}
	if err := nb.Fit(x, []int{0, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.Classify([]float64{1, 2}); err != ErrDimension {
		t.Fatal("wrong feature count should error")
	}
}

func TestPCARecoversAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 500
	x := NewMatrix(n, 2)
	// Data varies mostly along (1,1)/sqrt2.
	for i := 0; i < n; i++ {
		major := rng.NormFloat64() * 10
		minor := rng.NormFloat64() * 0.5
		x.Set(i, 0, (major+minor)/math.Sqrt2+3)
		x.Set(i, 1, (major-minor)/math.Sqrt2-1)
	}
	var p PCA
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	pc1 := p.Components.Row(0)
	// First component should align with (1,1)/sqrt2 (either sign).
	dot := math.Abs(pc1[0]*1/math.Sqrt2 + pc1[1]*1/math.Sqrt2)
	if dot < 0.99 {
		t.Fatalf("PC1 = %v, alignment %v", pc1, dot)
	}
	ratios := p.ExplainedVarianceRatio()
	if ratios[0] < 0.99 {
		t.Fatalf("explained ratio = %v", ratios)
	}
	if p.ComponentsFor(0.95) != 1 {
		t.Fatalf("ComponentsFor(0.95) = %d", p.ComponentsFor(0.95))
	}
	// A point off the principal axis has a large residual.
	onAxis, _ := p.ResidualNorm([]float64{3 + 7, -1 + 7}, 1)
	offAxis, _ := p.ResidualNorm([]float64{3 + 7, -1 - 7}, 1)
	if offAxis < 10*onAxis {
		t.Fatalf("residuals: on=%v off=%v", onAxis, offAxis)
	}
}

func TestPCATransformShape(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}, {1, 0, 1}})
	var p PCA
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	out, err := p.Transform([]float64{1, 2, 3}, 2)
	if err != nil || len(out) != 2 {
		t.Fatalf("Transform = %v, %v", out, err)
	}
	if _, err := p.Transform([]float64{1}, 2); err != ErrDimension {
		t.Fatal("wrong dims should error")
	}
	if _, err := p.ResidualNorm([]float64{1, 2, 3}, 99); err == nil {
		t.Fatal("k out of range should error")
	}
}

func TestEvalMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 5}
	if !approx(MAE(pred, truth), 2.0/3.0, 1e-12) {
		t.Fatalf("MAE = %v", MAE(pred, truth))
	}
	if R2(truth, truth) != 1 {
		t.Fatal("perfect R2 should be 1")
	}
	if Accuracy([]int{1, 0, 1}, []int{1, 1, 1}) != 2.0/3.0 {
		t.Fatal("Accuracy")
	}
}

func TestTrainTestSplit(t *testing.T) {
	train, test := TrainTestSplit(100, 0.2, 42)
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes = %d/%d", len(train), len(test))
	}
	seen := make(map[int]bool)
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d duplicated", i)
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Fatal("split lost indices")
	}
	// Deterministic under the same seed.
	tr2, te2 := TrainTestSplit(100, 0.2, 42)
	for i := range tr2 {
		if tr2[i] != train[i] {
			t.Fatal("split not deterministic")
		}
	}
	_ = te2
	// Degenerate fractions are clamped.
	tr3, te3 := TrainTestSplit(10, 0, 1)
	if len(te3) == 0 || len(tr3)+len(te3) != 10 {
		t.Fatal("clamped split broken")
	}
}

func TestSelectHelpers(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{1}, {2}, {3}})
	sub := SelectRows(x, []int{2, 0})
	if sub.At(0, 0) != 3 || sub.At(1, 0) != 1 {
		t.Fatalf("SelectRows = %+v", sub)
	}
	if f := SelectFloats([]float64{9, 8, 7}, []int{1}); f[0] != 8 {
		t.Fatal("SelectFloats")
	}
	if n := SelectInts([]int{4, 5, 6}, []int{2}); n[0] != 6 {
		t.Fatal("SelectInts")
	}
}
