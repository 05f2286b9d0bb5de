package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m, err := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(1, 1) != 4 {
		t.Fatalf("matrix = %+v", m)
	}
	m.Set(0, 0, 9)
	if m.Row(0)[0] != 9 {
		t.Fatal("Set/Row broken")
	}
	col := m.Col(1)
	if len(col) != 3 || col[2] != 6 {
		t.Fatalf("Col = %v", col)
	}
	tr := m.T()
	if tr.Rows != 2 || tr.Cols != 3 || tr.At(1, 2) != 6 {
		t.Fatalf("transpose = %+v", tr)
	}
	if _, err := MatrixFromRows(nil); err == nil {
		t.Fatal("empty rows should error")
	}
	if _, err := MatrixFromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestMatrixMul(t *testing.T) {
	a, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul = %+v", c)
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); err != ErrDimension {
		t.Fatal("dimension mismatch should error")
	}
	v, err := a.MulVec([]float64{1, 1})
	if err != nil || v[0] != 3 || v[1] != 7 {
		t.Fatalf("MulVec = %v, %v", v, err)
	}
	if _, err := a.MulVec([]float64{1}); err != ErrDimension {
		t.Fatal("MulVec dimension mismatch should error")
	}
}

func TestSolveLinear(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
	a, _ := MatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 1, 1e-9) || !approx(x[1], 3, 1e-9) {
		t.Fatalf("solution = %v", x)
	}
	sing, _ := MatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(sing, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("singular system returned %v", err)
	}
	if _, err := SolveLinear(NewMatrix(2, 3), []float64{1, 2}); err != ErrDimension {
		t.Fatal("non-square should error")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Zero on the diagonal requires a row swap.
	a, _ := MatrixFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveLinear(a, []float64{2, 3})
	if err != nil || !approx(x[0], 3, 1e-12) || !approx(x[1], 2, 1e-12) {
		t.Fatalf("pivoted solve = %v, %v", x, err)
	}
}

func TestSolveLinearRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance guarantees non-singularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)*2)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, _ := a.MulVec(want)
		got, err := SolveLinear(a.Clone(), b)
		if err != nil {
			return false
		}
		for i := range want {
			if !approx(got[i], want[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if Euclidean(a, b) != 5 {
		t.Fatal("Euclidean")
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot")
	}
}
