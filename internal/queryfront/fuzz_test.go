package queryfront

import (
	"net/url"
	"testing"
)

// FuzzQueryRangeParse feeds arbitrary query strings through the
// /query_range parameter parser and checks the contract the handlers rely
// on: parsing never panics, and any accepted parameter set satisfies the
// invariants the planner assumes (non-empty series, from < to, positive
// step, a bucketed range no wider than int64, a known aggregation function).
func FuzzQueryRangeParse(f *testing.F) {
	// Seeds mirror the committed corpus in testdata/fuzz/FuzzQueryRangeParse.
	f.Add("series=node_power_watts{node=n0}&from=0&to=7200000&step=60000&fn=mean")
	f.Add("series=x&from=-5&to=5&step=1&fn=rate")
	f.Add("series=&from=0&to=1&step=1")
	f.Add("from=abc&to=10&step=60")
	f.Add("series=x&from=9223372036854775807&to=-9223372036854775808&step=1")
	f.Add("series=x&from=0&to=10&step=0&fn=p95")
	f.Add("series=x&from=-9223372036854775808&to=9223372036854775807&step=60000&fn=mean")
	f.Add("series=%zz&fn=&step=&&&=&")
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, needStep := range []bool{true, false} {
			p, err := parseQueryParams(vals, needStep)
			if err != nil {
				continue
			}
			if p.series == "" {
				t.Fatalf("accepted empty series: %q", raw)
			}
			if p.to <= p.from {
				t.Fatalf("accepted empty range [%d, %d): %q", p.from, p.to, raw)
			}
			if needStep && p.step <= 0 {
				t.Fatalf("accepted non-positive step %d: %q", p.step, raw)
			}
			if needStep && p.to-p.from < 0 {
				t.Fatalf("accepted a bucketed range wider than int64 [%d, %d): %q", p.from, p.to, raw)
			}
			if !needStep && p.step != 0 {
				t.Fatalf("/query parse produced a step: %q", raw)
			}
			if _, err := parseAggFunc(string(p.fn)); err != nil {
				t.Fatalf("accepted unknown fn %q: %q", p.fn, raw)
			}
		}
	})
}
