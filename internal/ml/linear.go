package ml

import (
	"errors"
	"math"
)

// LinearRegression is an ordinary-least-squares (optionally ridge) linear
// model fit via the normal equations. It is the workhorse behind KPI
// forecasting, cooling models and job resource prediction.
type LinearRegression struct {
	// Lambda is the L2 (ridge) regularization strength; 0 means plain OLS.
	Lambda float64
	// Coef holds one weight per feature after Fit.
	Coef []float64
	// Intercept is the bias term after Fit.
	Intercept float64
}

// Fit estimates the model from feature matrix X (rows are observations) and
// target vector y.
func (lr *LinearRegression) Fit(x *Matrix, y []float64) error {
	if x.Rows != len(y) {
		return ErrDimension
	}
	if x.Rows == 0 {
		return errors.New("ml: no training data")
	}
	n, d := x.Rows, x.Cols
	// Augment with a bias column: solve (A'A + λI) w = A'y with A = [X | 1].
	ata := NewMatrix(d+1, d+1)
	aty := make([]float64, d+1)
	for r := 0; r < n; r++ {
		row := x.Row(r)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				ata.Set(i, j, ata.At(i, j)+row[i]*row[j])
			}
			ata.Set(i, d, ata.At(i, d)+row[i])
			aty[i] += row[i] * y[r]
		}
		aty[d] += y[r]
	}
	ata.Set(d, d, float64(n))
	for i := 0; i < d+1; i++ { // mirror the upper triangle
		for j := i + 1; j < d+1; j++ {
			ata.Set(j, i, ata.At(i, j))
		}
	}
	if lr.Lambda > 0 {
		for i := 0; i < d; i++ { // do not regularize the intercept
			ata.Set(i, i, ata.At(i, i)+lr.Lambda)
		}
	}
	w, err := SolveLinear(ata, aty)
	if err != nil {
		return err
	}
	lr.Coef = w[:d]
	lr.Intercept = w[d]
	return nil
}

// Predict returns the model output for one feature vector.
func (lr *LinearRegression) Predict(features []float64) float64 {
	return Dot(lr.Coef, features) + lr.Intercept
}

// PredictBatch returns predictions for every row of x.
func (lr *LinearRegression) PredictBatch(x *Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		out[i] = lr.Predict(x.Row(i))
	}
	return out
}

// LogisticRegression is a binary classifier trained with full-batch gradient
// descent; labels are 0/1. Used for failure prediction and fingerprinting.
type LogisticRegression struct {
	// LearningRate for gradient descent (default 0.1 when zero).
	LearningRate float64
	// Epochs of full-batch gradient descent (default 200 when zero).
	Epochs int
	// Lambda is L2 regularization strength.
	Lambda float64

	Coef      []float64
	Intercept float64
}

func sigmoid(z float64) float64 {
	// Numerically stable in both tails.
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains the classifier on X and binary labels y.
func (lg *LogisticRegression) Fit(x *Matrix, y []float64) error {
	if x.Rows != len(y) {
		return ErrDimension
	}
	if x.Rows == 0 {
		return errors.New("ml: no training data")
	}
	lr := lg.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	epochs := lg.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	n, d := x.Rows, x.Cols
	lg.Coef = make([]float64, d)
	lg.Intercept = 0
	grad := make([]float64, d)
	for e := 0; e < epochs; e++ {
		for i := range grad {
			grad[i] = 0
		}
		var gradB float64
		for r := 0; r < n; r++ {
			row := x.Row(r)
			p := sigmoid(Dot(lg.Coef, row) + lg.Intercept)
			err := p - y[r]
			for j, v := range row {
				grad[j] += err * v
			}
			gradB += err
		}
		inv := 1 / float64(n)
		for j := range lg.Coef {
			lg.Coef[j] -= lr * (grad[j]*inv + lg.Lambda*lg.Coef[j])
		}
		lg.Intercept -= lr * gradB * inv
	}
	return nil
}

// PredictProba returns P(y=1 | features).
func (lg *LogisticRegression) PredictProba(features []float64) float64 {
	return sigmoid(Dot(lg.Coef, features) + lg.Intercept)
}

// Predict returns the hard 0/1 class at threshold 0.5.
func (lg *LogisticRegression) Predict(features []float64) int {
	if lg.PredictProba(features) >= 0.5 {
		return 1
	}
	return 0
}

// StandardScaler normalizes features to zero mean and unit variance, fit on
// training data and applied to both train and inference inputs.
type StandardScaler struct {
	Mean []float64
	Std  []float64
}

// Fit learns per-column mean and std from x.
func (s *StandardScaler) Fit(x *Matrix) {
	d := x.Cols
	s.Mean = make([]float64, d)
	s.Std = make([]float64, d)
	if x.Rows == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	inv := 1 / float64(x.Rows)
	for j := range s.Mean {
		s.Mean[j] *= inv
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] * inv)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
}

// Apply scales x in place: the working set a feature pipeline built stays
// its only copy.
func (s *StandardScaler) Apply(x *Matrix) {
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
}

// Transform returns a scaled copy of x, Apply's arithmetic on a Clone.
func (s *StandardScaler) Transform(x *Matrix) *Matrix {
	out := x.Clone()
	s.Apply(out)
	return out
}

// TransformVec scales a single feature vector in a new slice.
func (s *StandardScaler) TransformVec(v []float64) []float64 {
	out := make([]float64, len(v))
	for j := range v {
		out[j] = (v[j] - s.Mean[j]) / s.Std[j]
	}
	return out
}
