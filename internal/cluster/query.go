package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/timeseries"
)

// The distributed query path. Two shapes:
//
//   - single-series: route the whole query to the series' owner. Mergeable
//     functions ship a Partial back and finish at the coordinator;
//     non-mergeable ones (std/p95 need the raw distribution) compute the
//     final value on the owner. If the owner is unreachable the query falls
//     back to a follower's replica store of that owner and the result is
//     flagged partial (a replica may lag the leader).
//
//   - scatter (multi-series): group keys by owner, fan out one request per
//     peer, and merge per-key partials at the coordinator IN SORTED KEY
//     ORDER. That fixed fold order is what makes the distributed answer
//     bit-identical to a single store holding all the data (see
//     MergedReduce/MergedAggregate, the reference implementations).
//
// Peers that stay unreachable after replica fallback degrade the scatter to
// a partial result: their keys are skipped and the peer is reported, never
// silently absorbed.

// execQuery runs a query op against this node's primary store or one of its
// replica stores. It is the single execution path: the server invokes it
// for remote coordinators and the local coordinator invokes it for itself,
// so self-served and peer-served results cannot diverge.
func (r *Router) execQuery(q *queryRequest) *queryResponse {
	if q.Epoch != 0 {
		if mine := r.Epoch(); q.Epoch != mine {
			// The coordinator placed this query under a different topology:
			// refuse explicitly rather than answer for keys we may not own.
			return &queryResponse{EpochMismatch: true, Epoch: mine}
		}
	}
	var st *timeseries.Store
	resp := &queryResponse{}
	if q.ReplicaOf != "" {
		rep := r.replicaFor(q.ReplicaOf)
		if rep == nil {
			return &queryResponse{Err: fmt.Sprintf("node %s holds no replica of %s", r.self, q.ReplicaOf)}
		}
		var promoted bool
		st, promoted, resp.ReplSeq, resp.ReplOff = rep.snapshotState()
		if st == nil {
			return &queryResponse{Err: fmt.Sprintf("replica of %s on %s not bootstrapped", q.ReplicaOf, r.self)}
		}
		resp.Promoted = promoted
		r.replicaReads.Add(1)
	} else {
		st = r.cfg.Store
	}
	if err := checkOp(q.Op); err != nil {
		return &queryResponse{Err: err.Error()}
	}
	resp.Results = make([]keyResult, len(q.Keys))
	for i, key := range q.Keys {
		res := &resp.Results[i]
		id, ok := st.IDForKey(key)
		if !ok {
			continue // Found stays false: this peer has never seen the series
		}
		var err error
		var plan timeseries.QueryPlan // the full ops scan raw: tier 0
		switch q.Op {
		case opReducePartial:
			res.Partial, plan, err = st.ReducePartial(id, q.From, q.To)
		case opAggPartials:
			res.PPoints, plan, err = st.AggregatePartials(id, q.From, q.To, q.Step)
		case opReduceFull:
			var v float64
			var n int
			v, n, err = st.ReducePlanned(id, q.From, q.To, q.Fn)
			res.Value, res.Count = v, int64(n)
		case opAggFull:
			res.Points, err = st.AggregatePlanned(id, q.From, q.To, q.Step, q.Fn)
		}
		if err != nil {
			return &queryResponse{Err: err.Error()}
		}
		res.Found, res.TierStep = true, plan.TierStep
	}
	return resp
}

// queryOwner executes q against the node owning its keys: locally when the
// owner is self, over RPC otherwise. If the owner fails, every one of its
// followers is asked against their replica-of-owner store and the one with
// the most advanced replication cursor answers; a promoted follower (the
// failure detector granted it the read lease) answers authoritatively,
// otherwise fallback=true so the caller can flag the result partial. When
// the follower cursors disagree, the trailing replicas are back-filled from
// the freshest one (read repair) so subsequent scatters stop diverging.
//
// An epoch-mismatch rejection from the owner triggers a topology exchange:
// if that adopts a newer topology the query returns errTopologyChanged and
// the public API retries against fresh placement; if the peer was merely
// behind, our topology is pushed and the same owner is retried once.
func (r *Router) queryOwner(owner string, q *queryRequest) (results []keyResult, fallback bool, err error) {
	q.Epoch = r.Epoch()
	var primaryErr error
	if owner == r.self {
		resp := r.execQuery(q)
		if resp.Err == "" && !resp.EpochMismatch {
			return resp.Results, false, nil
		}
		primaryErr = errors.New(resp.Err)
	} else {
		p := r.peer(owner)
		if p == nil {
			// The topology moved under us between placement and dispatch.
			return nil, false, errTopologyChanged
		}
		resp, qerr := p.rc.query(q, rpcTimeout)
		var em *epochMismatchError
		if errors.As(qerr, &em) {
			if rerr := r.resolveEpochMismatch(p, em.peerEpoch); rerr != nil {
				if errors.Is(rerr, errTopologyChanged) {
					return nil, false, rerr
				}
				// exchange failed: the peer went dark mid-conversation; fall
				// through to the replica fallback below.
			} else {
				q.Epoch = r.Epoch()
				resp, qerr = p.rc.query(q, rpcTimeout)
			}
		}
		if qerr == nil {
			return resp.Results, false, nil
		}
		primaryErr = qerr
	}
	fq := *q
	fq.ReplicaOf = owner
	type followerResult struct {
		id   string
		resp *queryResponse
	}
	var outs []followerResult
	for _, f := range r.topo.Load().Ring().Followers(owner) {
		if f == owner {
			continue
		}
		if f == r.self {
			resp := r.execQuery(&fq)
			if resp.Err == "" && !resp.EpochMismatch {
				outs = append(outs, followerResult{id: f, resp: resp})
			}
			continue
		}
		p := r.peer(f)
		if p == nil {
			continue
		}
		resp, qerr := p.rc.query(&fq, rpcTimeout)
		if qerr == nil {
			outs = append(outs, followerResult{id: f, resp: resp})
		}
	}
	if len(outs) == 0 {
		return nil, false, primaryErr
	}
	best := 0
	for i := 1; i < len(outs); i++ {
		if cursorBehind(outs[best].resp.ReplSeq, outs[best].resp.ReplOff, outs[i].resp.ReplSeq, outs[i].resp.ReplOff) {
			best = i
		}
	}
	for i := range outs {
		if i == best {
			continue
		}
		if cursorBehind(outs[i].resp.ReplSeq, outs[i].resp.ReplOff, outs[best].resp.ReplSeq, outs[best].resp.ReplOff) {
			r.repairReplica(owner, outs[i].id, outs[best].id)
		}
	}
	bestResp := outs[best].resp
	if bestResp.Promoted {
		// The lease holder's answer is authoritative, not partial: the
		// leader has been dead long enough that this replica IS the data.
		return bestResp.Results, false, nil
	}
	return bestResp.Results, true, nil
}

// --- single-series API (what the HTTP front door asks for) ---

// retryTopology runs a query once more when a topology epoch flipped under it
// (errTopologyChanged): the second run re-derives placement from the freshly
// adopted topology, so a query racing a join or leave lands on the new owner
// instead of failing.
func retryTopology(once func() error) error {
	err := once()
	if errors.Is(err, errTopologyChanged) {
		err = once()
	}
	return err
}

// querySeries answers one series' reduction (step <= 0) or bucketed
// aggregation wherever the series lives, finished: Value/Count or Points are
// set whichever op ran, and TierStep is the plan the answering store
// executed. Check Found before reading them. partial=true means the answer
// came from a (possibly lagging) replica.
func (r *Router) querySeries(key string, from, to, step int64, fn timeseries.AggFunc) (res *keyResult, partial bool, err error) {
	q := &queryRequest{From: from, To: to, Step: step, Keys: []string{key}}
	mergeable := timeseries.MergeableAgg(fn)
	switch {
	case mergeable && step > 0:
		q.Op = opAggPartials
	case mergeable:
		q.Op = opReducePartial
	case step > 0:
		q.Op, q.Fn = opAggFull, fn
	default:
		q.Op, q.Fn = opReduceFull, fn
	}
	err = retryTopology(func() error {
		owner := r.topo.Load().Ring().Primary(key)
		if owner != r.self {
			r.scatterQueries.Add(1)
		}
		results, fallback, err := r.queryOwner(owner, q)
		if err != nil {
			return err
		}
		if fallback {
			r.partialQueries.Add(1)
		}
		res, partial = &results[0], fallback
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	switch q.Op {
	case opReducePartial:
		res.Value, res.Count = res.Partial.Value(fn), res.Partial.Count
	case opAggPartials:
		res.Points = timeseries.FinishPartials(res.PPoints, fn)
	}
	return res, partial, nil
}

// Reduce answers a single-series reduction wherever the series lives.
func (r *Router) Reduce(key string, from, to int64, fn timeseries.AggFunc) (value float64, count int, tierStep int64, found, partial bool, err error) {
	res, partial, err := r.querySeries(key, from, to, 0, fn)
	if err != nil || !res.Found {
		return 0, 0, 0, false, partial, err
	}
	return res.Value, int(res.Count), res.TierStep, true, partial, nil
}

// AggregateRange answers a single-series bucketed aggregation wherever the
// series lives; semantics mirror Reduce.
func (r *Router) AggregateRange(key string, from, to, step int64, fn timeseries.AggFunc) (pts []timeseries.AggPoint, tierStep int64, found, partial bool, err error) {
	if step <= 0 {
		return nil, 0, false, false, fmt.Errorf("cluster: step must be positive")
	}
	res, partial, err := r.querySeries(key, from, to, step, fn)
	if err != nil || !res.Found {
		return nil, 0, false, partial, err
	}
	return res.Points, res.TierStep, true, partial, nil
}

// ReducePeers is Reduce with degraded-peer attribution: peers names each
// owner whose answer was served by replica fallback or skipped, so an HTTP
// front door can tell clients exactly which nodes degraded the result.
func (r *Router) ReducePeers(key string, from, to int64, fn timeseries.AggFunc) (value float64, count int, tierStep int64, found bool, peers []string, err error) {
	value, count, tierStep, found, partial, err := r.Reduce(key, from, to, fn)
	if err == nil && partial {
		peers = []string{r.topo.Load().Ring().Primary(key)}
	}
	return value, count, tierStep, found, peers, err
}

// AggregateRangePeers is AggregateRange with degraded-peer attribution.
func (r *Router) AggregateRangePeers(key string, from, to, step int64, fn timeseries.AggFunc) (pts []timeseries.AggPoint, tierStep int64, found bool, peers []string, err error) {
	pts, tierStep, found, partial, err := r.AggregateRange(key, from, to, step, fn)
	if err == nil && partial {
		peers = []string{r.topo.Load().Ring().Primary(key)}
	}
	return pts, tierStep, found, peers, err
}

// --- scatter API (multi-series) ---

// ReduceMany reduces many series to one value by merging per-owner partial
// aggregates; only MergeableAgg functions are scatterable. partialPeers
// lists owners whose data arrived via replica fallback or not at all — an
// empty list means the answer is exact and bit-identical to MergedReduce
// over a single store holding every series.
func (r *Router) ReduceMany(keys []string, from, to int64, fn timeseries.AggFunc) (value float64, count int64, partialPeers []string, err error) {
	if !timeseries.MergeableAgg(fn) {
		return 0, 0, nil, fmt.Errorf("cluster: %s does not merge across peers (route per series instead)", fn)
	}
	keys = sortedUnique(keys)
	perKey, partialPeers, err := r.scatterPartials(opReducePartial, keys, from, to, 0)
	if err != nil {
		return 0, 0, nil, err
	}
	var total timeseries.Partial
	for _, k := range keys {
		if p, ok := perKey[k]; ok {
			total.Merge(p.Partial)
		}
	}
	return total.Value(fn), total.Count, partialPeers, nil
}

// AggregateMany buckets many series into shared step windows, merging
// per-key partial buckets in sorted key order. Semantics as ReduceMany.
func (r *Router) AggregateMany(keys []string, from, to, step int64, fn timeseries.AggFunc) (pts []timeseries.AggPoint, partialPeers []string, err error) {
	if !timeseries.MergeableAgg(fn) {
		return nil, nil, fmt.Errorf("cluster: %s does not merge across peers (route per series instead)", fn)
	}
	if step <= 0 {
		return nil, nil, fmt.Errorf("cluster: step must be positive")
	}
	keys = sortedUnique(keys)
	perKey, partialPeers, err := r.scatterPartials(opAggPartials, keys, from, to, step)
	if err != nil {
		return nil, nil, err
	}
	ordered := make([][]timeseries.PartialPoint, 0, len(keys))
	for _, k := range keys {
		if p, ok := perKey[k]; ok {
			ordered = append(ordered, p.PPoints)
		}
	}
	return mergeAggregate(ordered, fn), partialPeers, nil
}

// scatterPartials fans one op out to every owner concurrently and gathers
// per-key results. Owners that fail entirely have their keys skipped and
// are reported in partialPeers (sorted), alongside owners served by
// replica fallback.
func (r *Router) scatterPartials(op queryOp, keys []string, from, to, step int64) (perKey map[string]*keyResult, partialPeers []string, err error) {
	err = retryTopology(func() error {
		perKey, partialPeers, err = r.scatterOnce(op, keys, from, to, step)
		return err
	})
	return perKey, partialPeers, err
}

func (r *Router) scatterOnce(op queryOp, keys []string, from, to, step int64) (map[string]*keyResult, []string, error) {
	groups := make(map[string][]string)
	ring := r.topo.Load().Ring()
	for _, k := range keys {
		owner := ring.Primary(k)
		groups[owner] = append(groups[owner], k) // keys sorted → groups sorted
	}
	r.scatterQueries.Add(1)
	type groupOut struct {
		owner    string
		keys     []string
		results  []keyResult
		fallback bool
		err      error
	}
	outs := make([]groupOut, 0, len(groups))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for owner, gk := range groups {
		wg.Add(1)
		go func(owner string, gk []string) {
			defer wg.Done()
			q := &queryRequest{Op: op, From: from, To: to, Step: step, Keys: gk}
			results, fallback, err := r.queryOwner(owner, q)
			mu.Lock()
			outs = append(outs, groupOut{owner: owner, keys: gk, results: results, fallback: fallback, err: err})
			mu.Unlock()
		}(owner, gk)
	}
	wg.Wait()
	perKey := make(map[string]*keyResult, len(keys))
	var partialPeers []string
	for i := range outs {
		g := &outs[i]
		if errors.Is(g.err, errTopologyChanged) {
			// The epoch flipped under the scatter: the whole placement is
			// stale, so the caller re-derives groups and retries rather than
			// degrading this owner's keys to a partial answer.
			return nil, nil, errTopologyChanged
		}
		if g.err != nil {
			partialPeers = append(partialPeers, g.owner)
			continue
		}
		if g.fallback {
			partialPeers = append(partialPeers, g.owner)
		}
		for j := range g.results {
			if g.results[j].Found {
				perKey[g.keys[j]] = &g.results[j]
			}
		}
	}
	if len(partialPeers) > 0 {
		sort.Strings(partialPeers)
		r.partialQueries.Add(1)
	}
	return perKey, partialPeers, nil
}

// mergeAggregate merges per-key bucketed partials (already in sorted key
// order) into one bucketed result. Per bucket, partials fold in key order —
// the same fixed order MergedAggregate uses, so distributed and single-node
// answers agree bit for bit.
func mergeAggregate(perKey [][]timeseries.PartialPoint, fn timeseries.AggFunc) []timeseries.AggPoint {
	buckets := make(map[int64]*timeseries.Partial)
	var starts []int64
	for _, pts := range perKey {
		for i := range pts {
			pp := &pts[i]
			b := buckets[pp.Start]
			if b == nil {
				b = &timeseries.Partial{}
				buckets[pp.Start] = b
				starts = append(starts, pp.Start)
			}
			b.Merge(pp.Agg)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]timeseries.AggPoint, 0, len(starts))
	for _, s := range starts {
		b := buckets[s]
		if b.Count == 0 {
			continue
		}
		out = append(out, timeseries.AggPoint{Start: s, Value: b.Value(fn)})
	}
	return out
}

func sortedUnique(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	j := 0
	for i, k := range out {
		if i == 0 || k != out[j-1] {
			out[j] = k
			j++
		}
	}
	return out[:j]
}

// --- single-store reference implementations ---

// MergedReduce is the single-node oracle for ReduceMany: the same sorted-key
// partial merge executed against one store holding every series. The
// distributed path must reproduce it bit for bit when no peer degrades.
func MergedReduce(st *timeseries.Store, keys []string, from, to int64, fn timeseries.AggFunc) (float64, int64, error) {
	if !timeseries.MergeableAgg(fn) {
		return 0, 0, fmt.Errorf("cluster: %s does not merge across series", fn)
	}
	var total timeseries.Partial
	for _, k := range sortedUnique(keys) {
		id, ok := st.IDForKey(k)
		if !ok {
			continue
		}
		p, _, err := st.ReducePartial(id, from, to)
		if err != nil {
			return 0, 0, err
		}
		total.Merge(p)
	}
	return total.Value(fn), total.Count, nil
}

// MergedAggregate is the single-node oracle for AggregateMany.
func MergedAggregate(st *timeseries.Store, keys []string, from, to, step int64, fn timeseries.AggFunc) ([]timeseries.AggPoint, error) {
	if !timeseries.MergeableAgg(fn) {
		return nil, fmt.Errorf("cluster: %s does not merge across series", fn)
	}
	if step <= 0 {
		return nil, fmt.Errorf("cluster: step must be positive")
	}
	ordered := make([][]timeseries.PartialPoint, 0, len(keys))
	for _, k := range sortedUnique(keys) {
		id, ok := st.IDForKey(k)
		if !ok {
			continue
		}
		pp, _, err := st.AggregatePartials(id, from, to, step)
		if err != nil {
			return nil, err
		}
		ordered = append(ordered, pp)
	}
	return mergeAggregate(ordered, fn), nil
}
