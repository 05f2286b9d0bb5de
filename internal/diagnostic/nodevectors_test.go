package diagnostic

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/oda"
	"repro/internal/timeseries"
)

// TestNodeVectorsAppendAlignedRows: nodeVectors appends, after what dst
// already holds, one row per instant with every series' i-th sample, as
// many rows as the shortest series has; a missing series leaves dst as it
// was.
func TestNodeVectorsAppendAlignedRows(t *testing.T) {
	s := timeseries.NewStore(0)
	labels := metric.NewLabels("node", "n0")
	lengths := [nodeVectorCols]int{10, 9, 12, 10}
	for j, name := range nodeVectorNames {
		for i := 0; i < lengths[j]; i++ {
			if err := s.Append(metric.ID{Name: name, Labels: labels}, metric.Gauge, metric.UnitNone, int64(i+1)*60_000, float64(100*j+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Append(metric.ID{Name: nodeVectorNames[0], Labels: metric.NewLabels("node", "n1")}, metric.Gauge, metric.UnitNone, 60_000, 1); err != nil {
		t.Fatal(err)
	}
	ctx := &oda.RunContext{Store: s, From: 0, To: 1 << 40}
	prefix := []float64{-1, -2}

	dst, rows, err := nodeVectors(ctx, labels, ctx.From, ctx.To, append([]float64(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 9 || len(dst) != len(prefix)+9*nodeVectorCols {
		t.Fatalf("%d rows in %d values, want 9 rows after the %d-value prefix", rows, len(dst), len(prefix))
	}
	if dst[0] != -1 || dst[1] != -2 {
		t.Fatalf("prefix overwritten: %v", dst[:2])
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < nodeVectorCols; j++ {
			if got, want := dst[len(prefix)+i*nodeVectorCols+j], float64(100*j+i); got != want {
				t.Fatalf("row %d, column %d = %v, want %v", i, j, got, want)
			}
		}
	}

	// n1 has only a power series: the read fails and dst comes back as it was.
	dst, rows, err = nodeVectors(ctx, metric.NewLabels("node", "n1"), ctx.From, ctx.To, append([]float64(nil), prefix...))
	if err == nil || rows != 0 || len(dst) != len(prefix) || dst[0] != -1 || dst[1] != -2 {
		t.Fatalf("missing series: dst %v, %d rows, err %v; want the prefix back and an error", dst, rows, err)
	}
}
