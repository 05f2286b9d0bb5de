package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/metric"
	"repro/internal/queryfront"
	"repro/internal/timeseries"
)

// The distributed query path. Two shapes:
//
//   - single-series: route the whole query to the series' owner, which
//     answers it finished through queryfront.ForStore — the very code a
//     single node runs — so the value, and the tier step it reports, match a
//     single node by construction. If the owner is unreachable the query
//     falls back to a follower's replica store of that owner and the result
//     is flagged partial (a replica may lag the leader). Archive reads too.
//
//   - scatter (ReduceMany, Archive.Select): fan out one request per owner
//     and merge per-key partials, or series IDs, at the coordinator IN
//     SORTED KEY ORDER. That fixed order is what makes the distributed
//     answer bit-identical to a single store holding all the data; the tests
//     hold it to the reference model's sorted-key merge (tsmodel.ReduceMerged).
//
// Peers that stay unreachable after replica fallback degrade the scatter to
// a partial result: their keys are skipped and the peer is reported, never
// silently absorbed.

// var _ pins the front door's attribution contract: if ReducePeers or
// AggregateRangePeers drifted, odad's runtime assertion would quietly fail
// and X-ODA-Partial would degrade to a bare "true".
var _ queryfront.PeerBackend = (*Router)(nil)

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
	if q.Op == opSelect {
		for _, id := range st.Select(q.Match.Name, q.Match.Labels) {
			resp.Results = append(resp.Results, keyResult{Found: true, ID: id})
		}
		return resp
	}
	be := queryfront.ForStore(st)
	resp.Results = make([]keyResult, len(q.Keys))
	for i, key := range q.Keys {
		res := &resp.Results[i]
		var err error
		switch q.Op {
		case opReducePartial:
			id, ok := st.IDForKey(key)
			if !ok {
				continue // Found stays false: this store never saw the series
			}
			var plan timeseries.QueryPlan
			res.Partial, plan, err = st.ReducePartial(id, q.From, q.To)
			res.Found, res.TierStep = true, plan.TierStep
		case opReduceFull:
			var n int
			res.Value, n, res.TierStep, res.Found, _, err = be.Reduce(key, q.From, q.To, q.Fn)
			res.Count = int64(n)
		case opAggFull:
			res.Points, res.TierStep, res.Found, _, err = be.AggregateRange(key, q.From, q.To, q.Step, q.Fn)
		case opSamples:
			id, ok := st.IDForKey(key)
			if !ok {
				continue
			}
			res.Found = true
			err = st.Each(id, q.From, q.To, func(sm metric.Sample) bool {
				res.Times = append(res.Times, sm.T)
				res.Vals = append(res.Vals, sm.V)
				return true
			})
		}
		if err != nil {
			return &queryResponse{Err: err.Error()}
		}
	}
	return resp
}

// cursorBehind reports whether replication cursor a trails cursor b.
func cursorBehind(aSeq uint64, aOff int64, bSeq uint64, bOff int64) bool {
	if aSeq != bSeq {
		return aSeq < bSeq
	}
	return aOff < bOff
}

// queryOwner executes q against the node owning its keys: locally when the
// owner is self, over RPC otherwise. If the owner fails, every one of its
// followers is asked against their replica-of-owner store and the one with
// the most advanced replication cursor answers; a promoted follower (the
// failure detector granted it the read lease) answers authoritatively,
// otherwise fallback=true so the caller can flag the result partial. A
// trailing follower is left as it is: replicas catch up only from their
// leader, by WAL shipping.
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
	var best *queryResponse
	for _, f := range r.topo.Load().Ring().Followers(owner) {
		var resp *queryResponse
		switch {
		case f == owner:
			continue
		case f == r.self:
			if resp = r.execQuery(&fq); resp.Err != "" || resp.EpochMismatch {
				continue
			}
		default:
			p := r.peer(f)
			if p == nil {
				continue
			}
			var qerr error
			if resp, qerr = p.rc.query(&fq, rpcTimeout); qerr != nil {
				continue
			}
		}
		if best == nil || cursorBehind(best.ReplSeq, best.ReplOff, resp.ReplSeq, resp.ReplOff) {
			best = resp
		}
	}
	if best == nil {
		return nil, false, primaryErr
	}
	// The lease holder's answer is authoritative, not partial: the leader
	// has been dead long enough that this replica IS the data.
	return best.Results, !best.Promoted, nil
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

// querySeries runs q, a request for one key, wherever the key lives,
// finished by the answering store: the fields q.Op sets are filled, and
// TierStep is the plan that store executed. Check Found before reading them.
// owner is the key's owner under the placement q ran against; partial=true
// means the answer came from a (possibly lagging) replica of it.
func (r *Router) querySeries(q *queryRequest) (res *keyResult, owner string, partial bool, err error) {
	err = retryTopology(func() error {
		owner = r.topo.Load().Ring().Primary(q.Keys[0])
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
	return res, owner, partial, err
}

// Reduce answers a single-series reduction wherever the series lives.
func (r *Router) Reduce(key string, from, to int64, fn timeseries.AggFunc) (value float64, count int, tierStep int64, found, partial bool, err error) {
	res, _, partial, err := r.querySeries(&queryRequest{Op: opReduceFull, Fn: fn, From: from, To: to, Keys: []string{key}})
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
	res, _, partial, err := r.querySeries(&queryRequest{Op: opAggFull, Fn: fn, From: from, To: to, Step: step, Keys: []string{key}})
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
// empty list means the answer is exact and bit-identical to the same
// sorted-key merge over a single store holding every series.
func (r *Router) ReduceMany(keys []string, from, to int64, fn timeseries.AggFunc) (value float64, count int64, partialPeers []string, err error) {
	if !timeseries.MergeableAgg(fn) {
		return 0, 0, nil, fmt.Errorf("cluster: %s does not merge across peers (route per series instead)", fn)
	}
	keys = sortedUnique(keys)
	perKey, partialPeers, err := r.scatterPartials(keys, from, to)
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

// scatterPartials fans opReducePartial out to every owner concurrently and
// gathers per-key partials. Owners that fail entirely have their keys
// skipped and are reported in partialPeers (sorted), alongside owners served
// by replica fallback.
func (r *Router) scatterPartials(keys []string, from, to int64) (perKey map[string]*keyResult, partialPeers []string, err error) {
	err = retryTopology(func() error {
		perKey, partialPeers, err = r.scatterOnce(keys, from, to)
		return err
	})
	return perKey, partialPeers, err
}

func (r *Router) scatterOnce(keys []string, from, to int64) (map[string]*keyResult, []string, error) {
	groups := make(map[string][]string)
	ring := r.topo.Load().Ring()
	var owners []string
	for _, k := range keys {
		owner := ring.Primary(k)
		if groups[owner] == nil {
			owners = append(owners, owner)
		}
		groups[owner] = append(groups[owner], k) // keys sorted → groups sorted
	}
	r.scatterQueries.Add(1)
	answers, err := r.scatter(owners, func(owner string) *queryRequest {
		return &queryRequest{Op: opReducePartial, From: from, To: to, Keys: groups[owner]}
	})
	if err != nil {
		return nil, nil, err
	}
	perKey := make(map[string]*keyResult, len(keys))
	var partialPeers []string
	for _, a := range answers {
		if a.err != nil || a.fallback {
			partialPeers = append(partialPeers, a.owner)
		}
		gk := groups[a.owner]
		for j := range a.results {
			if a.results[j].Found {
				perKey[gk[j]] = &a.results[j]
			}
		}
	}
	if len(partialPeers) > 0 {
		sort.Strings(partialPeers)
		r.partialQueries.Add(1)
	}
	return perKey, partialPeers, nil
}

// ownerAnswer is one owner's answer to a scattered request: its results,
// whether a replica served them, or the error that left its part out.
type ownerAnswer struct {
	owner    string
	results  []keyResult
	fallback bool
	err      error
}

// scatter sends req(owner) to every owner concurrently, through queryOwner
// (so a down owner's replica answers for it), and returns the answers in
// owners' order. If the epoch flipped under any of them the whole placement
// is stale: it returns errTopologyChanged, and the caller re-derives its
// groups and retries rather than degrading that owner to a partial answer.
func (r *Router) scatter(owners []string, req func(owner string) *queryRequest) ([]ownerAnswer, error) {
	answers := make([]ownerAnswer, len(owners))
	var wg sync.WaitGroup
	for i, owner := range owners {
		a, q := &answers[i], req(owner)
		a.owner = owner
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.results, a.fallback, a.err = r.queryOwner(a.owner, q)
		}()
	}
	wg.Wait()
	for _, a := range answers {
		if errors.Is(a.err, errTopologyChanged) {
			return nil, errTopologyChanged
		}
	}
	return answers, nil
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
