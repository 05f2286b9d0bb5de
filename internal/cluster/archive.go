package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// Archive is one read request's view of the whole fleet's archive, what a
// grid sweep or a dashboard render on a clustered node reads. It answers as
// one store holding every member's series would (oda.Archive, which a
// *timeseries.Store also satisfies): Select scatters to every ring member
// and merges the answers in key order, and every other read is one
// single-series request to the series' owner, answered by execQuery, so
// self-, peer- and replica-served reads run one code path. It records each
// owner it could not read from its primary (PartialPeers), and is safe for
// concurrent use: the grid's worker pool shares one per sweep.
type Archive struct {
	r        *Router
	mu       sync.Mutex
	degraded map[string]bool
}

// Archive returns a fresh fleet-wide read view. Take one per sweep, so its
// PartialPeers covers exactly that sweep's reads.
func (r *Router) Archive() *Archive { return &Archive{r: r, degraded: make(map[string]bool)} }

// PartialPeers returns, sorted, every owner whose data this view read from
// a replica or left out. Empty means every read was answered by its owner.
func (a *Archive) PartialPeers() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	peers := make([]string, 0, len(a.degraded))
	for p := range a.degraded {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	return peers
}

// degrade records owners whose answer did not come from their primary.
func (a *Archive) degrade(owners ...string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, o := range owners {
		a.degraded[o] = true
	}
}

// Select returns the IDs of the series whose name matches name (any when
// empty) and whose labels match sel, across every ring member, in key
// order. A down member's replica answers for it; a member nobody answers
// for is left out and recorded.
func (a *Archive) Select(name string, sel metric.Labels) []metric.ID {
	var answers []ownerAnswer
	err := retryTopology(func() (err error) {
		members := a.r.topo.Load().Ring().Nodes()
		answers, err = a.r.scatter(members, func(string) *queryRequest {
			return &queryRequest{Op: opSelect, Match: metric.ID{Name: name, Labels: sel}}
		})
		return err
	})
	if err != nil {
		a.degrade(a.r.topo.Load().Ring().Nodes()...)
		return nil
	}
	type keyed struct {
		key string
		id  metric.ID
	}
	var all []keyed
	for _, an := range answers {
		if an.err != nil || an.fallback {
			a.degrade(an.owner)
		}
		for _, res := range an.results {
			all = append(all, keyed{res.ID.Key(), res.ID})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	var ids []metric.ID
	for i, k := range all {
		// A series a member still holds after it moved away is listed once.
		if i == 0 || k.key != all[i-1].key {
			ids = append(ids, k.id)
		}
	}
	return ids
}

// read runs a single-series request at the series' owner, records a
// degraded owner, and refuses a series no store holds the way a store
// refuses an unknown series.
func (a *Archive) read(q *queryRequest) (*keyResult, error) {
	res, owner, partial, err := a.r.querySeries(q)
	if err != nil || partial {
		a.degrade(owner)
	}
	if err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, fmt.Errorf("cluster: unknown series %s", q.Keys[0])
	}
	return res, nil
}

// SeriesValues returns one series' values over [from, to): every raw value
// for step <= 0, per-bucket means through the owner's planner for step > 0
// (what timeseries.Store.SeriesValues returns on the owner).
func (a *Archive) SeriesValues(id metric.ID, from, to, step int64) ([]float64, error) {
	q := &queryRequest{Op: opSamples, From: from, To: to, Keys: []string{id.Key()}}
	if step > 0 {
		q.Op, q.Fn, q.Step = opAggFull, timeseries.AggMean, step
	}
	res, err := a.read(q)
	if err != nil {
		return nil, err
	}
	if step <= 0 {
		return res.Vals, nil
	}
	vals := make([]float64, len(res.Points))
	for i, p := range res.Points {
		vals[i] = p.Value
	}
	return vals, nil
}

// Each streams one series' samples over [from, to) to fn in time order,
// stopping early when fn returns false.
func (a *Archive) Each(id metric.ID, from, to int64, fn func(metric.Sample) bool) error {
	res, err := a.read(&queryRequest{Op: opSamples, From: from, To: to, Keys: []string{id.Key()}})
	if err != nil {
		return err
	}
	for i, t := range res.Times {
		if !fn(metric.Sample{T: t, V: res.Vals[i]}) {
			break
		}
	}
	return nil
}

// ReducePlanned reduces one series over [from, to) on its owner, through
// the owner's planner: fn's value and the number of samples it covered.
func (a *Archive) ReducePlanned(id metric.ID, from, to int64, fn timeseries.AggFunc) (float64, int, error) {
	res, err := a.read(&queryRequest{Op: opReduceFull, Fn: fn, From: from, To: to, Keys: []string{id.Key()}})
	if err != nil {
		return 0, 0, err
	}
	return res.Value, int(res.Count), nil
}
