package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// TestArchiveMatchesOneStore: a router's Archive answers every read — Select
// in key order, raw and bucketed SeriesValues, Each, ReducePlanned, and the
// refusal of an unknown series — exactly as one store holding the whole
// dataset does, from every coordinator. With an owner dead and no replica,
// its series drop out of Select, its reads fail, and PartialPeers names it.
func TestArchiveMatchesOneStore(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes, fabric := startCluster(t, ids, 1, false, nil)
	ds := makeDataset(24, 40, 29)
	feed(t, nodes, "n1", ds)
	ref := timeseries.NewStore(16)
	if n, err := ref.AppendBatch(ds.entries); err != nil || n != len(ds.entries) {
		t.Fatalf("reference store took %d of %d: %v", n, len(ds.entries), err)
	}
	mid := ds.from + (ds.to-ds.from)/3
	step := (ds.to - ds.from) / 7
	unknown := metric.ID{Name: "no.such.series"}

	for _, coord := range ids {
		a := nodes[coord].router.Archive()
		for _, sel := range []struct {
			name   string
			labels metric.Labels
		}{{"", nil}, {"cluster.metric.03", nil}, {"", metric.NewLabels("host", "h2")}, {"nothing", nil}} {
			if got, want := a.Select(sel.name, sel.labels), ref.Select(sel.name, sel.labels); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Select(%q, %v) = %v, want %v", coord, sel.name, sel.labels, got, want)
			}
		}
		for _, id := range append(ref.Select("", nil), unknown) {
			for _, s := range []int64{0, step} {
				got, gotErr := a.SeriesValues(id, mid, ds.to, s)
				want, wantErr := ref.SeriesValues(id, mid, ds.to, s)
				if fmt.Sprint(got) != fmt.Sprint(want) || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: SeriesValues(%s, step %d) = %v, %v; want %v, %v", coord, id, s, got, gotErr, want, wantErr)
				}
			}
			var got, want []metric.Sample
			collect := func(dst *[]metric.Sample) func(metric.Sample) bool {
				return func(sm metric.Sample) bool { *dst = append(*dst, sm); return len(*dst) < 25 }
			}
			gotErr, wantErr := a.Each(id, ds.from, mid, collect(&got)), ref.Each(id, ds.from, mid, collect(&want))
			if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: Each(%s) = %v, %v; want %v, %v", coord, id, got, gotErr, want, wantErr)
			}
			for _, fn := range append(append([]timeseries.AggFunc(nil), mergeableFns...), ownerRoutedFns...) {
				gv, gn, gotErr := a.ReducePlanned(id, mid, ds.to, fn)
				wv, wn, wantErr := ref.ReducePlanned(id, mid, ds.to, fn)
				if !bitsEq(gv, wv) || gn != wn || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: ReducePlanned(%s, %s) = %v, %d, %v; want %v, %d, %v", coord, id, fn, gv, gn, gotErr, wv, wn, wantErr)
				}
			}
		}
		if p := a.PartialPeers(); len(p) != 0 {
			t.Fatalf("%s: healthy archive reports partial peers %v", coord, p)
		}
	}

	nodes["n3"].kill(fabric)
	a := nodes["n1"].router.Archive()
	var lost, kept []metric.ID
	for _, id := range ref.Select("", nil) {
		if nodes["n1"].router.Ring().Primary(id.Key()) == "n3" {
			lost = append(lost, id)
		} else {
			kept = append(kept, id)
		}
	}
	if len(lost) == 0 || len(kept) == 0 {
		t.Fatalf("dataset places %d series on n3 and %d elsewhere; want both", len(lost), len(kept))
	}
	// The grid's pool reads through one archive from several goroutines.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := a.Select("", nil); !reflect.DeepEqual(got, kept) {
				t.Errorf("Select with n3 dead = %v, want %v", got, kept)
			}
			if _, err := a.SeriesValues(lost[0], ds.from, ds.to, 0); err == nil {
				t.Error("a dead owner's series read without error")
			}
			if _, err := a.SeriesValues(kept[0], ds.from, ds.to, 0); err != nil {
				t.Errorf("a live owner's series: %v", err)
			}
		}()
	}
	wg.Wait()
	if p := a.PartialPeers(); !reflect.DeepEqual(p, []string{"n3"}) {
		t.Fatalf("PartialPeers = %v, want [n3]", p)
	}
}
