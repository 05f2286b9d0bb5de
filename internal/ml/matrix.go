// Package ml provides the machine-learning model classes used by the
// diagnostic, predictive and prescriptive ODA layers: linear and logistic
// regression, k-nearest-neighbours, k-means, CART decision trees, random
// forests, naive Bayes and PCA, together with evaluation helpers.
//
// All models are stdlib-only, deterministic under a caller-supplied seed,
// and sized for the data volumes an ODA pipeline sees per analysis window
// (thousands to hundreds of thousands of rows), not for deep-learning scale.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when input shapes are inconsistent.
var ErrDimension = errors.New("ml: dimension mismatch")

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("ml: singular matrix")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("ml: no rows")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("ml: row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, ErrDimension
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			v := mi[k]
			if v == 0 {
				continue
			}
			bk := b.Row(k)
			for j := range oi {
				oi[j] += v * bk[j]
			}
		}
	}
	return out, nil
}

// MulVec returns m * x as a vector.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, ErrDimension
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	cp := NewMatrix(m.Rows, m.Cols)
	copy(cp.Data, m.Data)
	return cp
}

// SolveLinear solves A x = b in place using Gaussian elimination with
// partial pivoting. A must be square; A and b are modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, ErrDimension
	}
	for col := 0; col < n; col++ {
		// Pivot: largest absolute value in this column at or below the diagonal.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if math.Abs(a.At(pivot, col)) < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				v1, v2 := a.At(col, j), a.At(pivot, j)
				a.Set(col, j, v2)
				a.Set(pivot, j, v1)
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Euclidean returns the Euclidean distance between two equal-length vectors.
func Euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
