package ml

import (
	"math"
	"math/rand"
)

// Regression error metrics. All return 0 for empty input rather than NaN so
// dashboards can render them unconditionally.

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination.
func R2(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	var mean float64
	for _, t := range truth {
		mean += t
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		ssRes += (truth[i] - pred[i]) * (truth[i] - pred[i])
		ssTot += (truth[i] - mean) * (truth[i] - mean)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// Accuracy returns the share of matching labels.
func Accuracy(pred, truth []int) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	hits := 0
	for i := range pred {
		if pred[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// TrainTestSplit shuffles row indices deterministically and splits them,
// returning train and test index slices. testFrac is clamped to (0, 1).
func TrainTestSplit(n int, testFrac float64, seed int64) (train, test []int) {
	perm, cut := splitPerm(n, testFrac, seed)
	return perm[cut:], perm[:cut]
}

// splitPerm is TrainTestSplit's shuffle: the test rows are perm[:cut], the
// training rows perm[cut:].
func splitPerm(n int, testFrac float64, seed int64) (perm []int, cut int) {
	if testFrac <= 0 {
		testFrac = 0.25
	}
	if testFrac >= 1 {
		testFrac = 0.5
	}
	rng := rand.New(rand.NewSource(seed))
	perm = rng.Perm(n)
	cut = int(float64(n) * testFrac)
	if cut < 1 && n > 1 {
		cut = 1
	}
	return perm, cut
}

// SplitInPlace deals x's rows and their labels y as TrainTestSplit(x.Rows,
// testFrac, seed) does, without copying them out: it reorders both in place
// — the test rows first, in test order, then the training rows in training
// order — and returns the two parts as views of x and y. Row k of train is
// the row train index k named, so a fit over it visits the same rows in the
// same order as one over SelectRows(x, train).
func SplitInPlace(x *Matrix, y []float64, testFrac float64, seed int64) (train, test *Matrix, trainY, testY []float64) {
	perm, cut := splitPerm(x.Rows, testFrac, seed)
	// Follow each cycle of the permutation, carrying the one row it
	// overwrites first: row k becomes the old row perm[k].
	done := make([]bool, len(perm))
	tmp := make([]float64, x.Cols)
	for k := range perm {
		if done[k] {
			continue
		}
		copy(tmp, x.Row(k))
		ty := y[k]
		for j := k; ; {
			done[j] = true
			src := perm[j]
			if src == k {
				copy(x.Row(j), tmp)
				y[j] = ty
				break
			}
			copy(x.Row(j), x.Row(src))
			y[j] = y[src]
			j = src
		}
	}
	c := cut * x.Cols
	test = &Matrix{Rows: cut, Cols: x.Cols, Data: x.Data[:c:c]}
	train = &Matrix{Rows: x.Rows - cut, Cols: x.Cols, Data: x.Data[c:]}
	return train, test, y[cut:], y[:cut:cut]
}

// SelectRows returns the submatrix of x given by idx.
func SelectRows(x *Matrix, idx []int) *Matrix {
	out := NewMatrix(len(idx), x.Cols)
	for i, r := range idx {
		copy(out.Row(i), x.Row(r))
	}
	return out
}

// SelectFloats returns y[idx].
func SelectFloats(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, r := range idx {
		out[i] = y[r]
	}
	return out
}

// SelectInts returns y[idx].
func SelectInts(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, r := range idx {
		out[i] = y[r]
	}
	return out
}
