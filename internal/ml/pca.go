package ml

import (
	"errors"
	"math"
	"sort"
)

// PCA computes a principal-component decomposition of centred data via
// cyclic Jacobi eigen-decomposition of the covariance matrix. The
// PCA-subspace anomaly detector in internal/anomaly projects telemetry
// vectors onto the residual subspace to score deviations.
type PCA struct {
	// Components holds the principal axes as rows, sorted by decreasing
	// explained variance.
	Components *Matrix
	// Variances holds the eigenvalue (explained variance) per component.
	Variances []float64
	// Mean is the per-feature mean removed before projection.
	Mean []float64
}

// Fit computes all principal components of the rows of x.
func (p *PCA) Fit(x *Matrix) error {
	if x.Rows < 2 {
		return errors.New("ml: PCA needs at least two rows")
	}
	d := x.Cols
	p.Mean = make([]float64, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			p.Mean[j] += v
		}
	}
	inv := 1 / float64(x.Rows)
	for j := range p.Mean {
		p.Mean[j] *= inv
	}
	// Covariance matrix.
	cov := NewMatrix(d, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			da := row[a] - p.Mean[a]
			for b := a; b < d; b++ {
				cov.Set(a, b, cov.At(a, b)+da*(row[b]-p.Mean[b]))
			}
		}
	}
	norm := 1 / float64(x.Rows-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * norm
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	vals, vecs := jacobiEigen(cov)
	// Sort by decreasing eigenvalue.
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	p.Variances = make([]float64, d)
	p.Components = NewMatrix(d, d)
	for rank, idx := range order {
		p.Variances[rank] = vals[idx]
		for j := 0; j < d; j++ {
			p.Components.Set(rank, j, vecs.At(j, idx)) // eigenvectors are columns of vecs
		}
	}
	return nil
}

// jacobiEigen diagonalizes a symmetric matrix, returning eigenvalues and a
// matrix whose columns are the corresponding eigenvectors.
func jacobiEigen(a *Matrix) ([]float64, *Matrix) {
	n := a.Rows
	m := a.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < 100; sweep++ {
		// Sum of squares of off-diagonal elements.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-20 {
			break
		}
		for pIdx := 0; pIdx < n-1; pIdx++ {
			for q := pIdx + 1; q < n; q++ {
				apq := m.At(pIdx, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := m.At(pIdx, pIdx), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, pIdx), m.At(k, q)
					m.Set(k, pIdx, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(pIdx, k), m.At(q, k)
					m.Set(pIdx, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, pIdx), v.At(k, q)
					v.Set(k, pIdx, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	return vals, v
}

// Transform projects q onto the first k principal components.
func (p *PCA) Transform(q []float64, k int) ([]float64, error) {
	if p.Components == nil {
		return nil, errors.New("ml: PCA not fitted")
	}
	if len(q) != len(p.Mean) {
		return nil, ErrDimension
	}
	if k <= 0 || k > p.Components.Rows {
		k = p.Components.Rows
	}
	centred := make([]float64, len(q))
	for j, v := range q {
		centred[j] = v - p.Mean[j]
	}
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		out[c] = Dot(p.Components.Row(c), centred)
	}
	return out, nil
}

// ResidualNorm returns the norm of q's projection onto the residual
// subspace (components beyond the first k): the SPE / Q-statistic used for
// subspace anomaly detection.
func (p *PCA) ResidualNorm(q []float64, k int) (float64, error) {
	if p.Components == nil {
		return 0, errors.New("ml: PCA not fitted")
	}
	if len(q) != len(p.Mean) {
		return 0, ErrDimension
	}
	if k < 0 || k > p.Components.Rows {
		return 0, errors.New("ml: k out of range")
	}
	// A detector scores every row of a window: centre a narrow one in a
	// stack buffer, not a fresh slice per row.
	var buf [8]float64
	centred := buf[:0]
	if len(q) > len(buf) {
		centred = make([]float64, 0, len(q))
	}
	for j, v := range q {
		centred = append(centred, v-p.Mean[j])
	}
	var s float64
	for c := k; c < p.Components.Rows; c++ {
		proj := Dot(p.Components.Row(c), centred)
		s += proj * proj
	}
	return math.Sqrt(s), nil
}

// ExplainedVarianceRatio returns the share of variance captured by each
// component.
func (p *PCA) ExplainedVarianceRatio() []float64 {
	var total float64
	for _, v := range p.Variances {
		if v > 0 {
			total += v
		}
	}
	out := make([]float64, len(p.Variances))
	if total == 0 {
		return out
	}
	for i, v := range p.Variances {
		if v > 0 {
			out[i] = v / total
		}
	}
	return out
}

// ComponentsFor returns the smallest k whose cumulative explained variance
// ratio reaches the given threshold in (0, 1].
func (p *PCA) ComponentsFor(threshold float64) int {
	ratios := p.ExplainedVarianceRatio()
	cum := 0.0
	for i, r := range ratios {
		cum += r
		if cum >= threshold {
			return i + 1
		}
	}
	return len(ratios)
}
