package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// FuzzRingPlacement throws arbitrary key bytes and cluster shapes at the
// ring and checks the placement invariants that the Router leans on: the
// primary is a member node, Owners returns exactly RF distinct nodes with
// the primary first, the follower tail matches the node-level Followers
// relation, and the whole placement is insensitive to the order the node
// IDs were configured in.
func FuzzRingPlacement(f *testing.F) {
	f.Add("cpu.load{host=c0-n14}", uint8(3), uint8(2))
	f.Add("", uint8(1), uint8(1))
	f.Add("power.node_watts{rack=r9}", uint8(7), uint8(7))
	f.Add("a#0", uint8(2), uint8(1))
	f.Add("\x00\xff\x00", uint8(9), uint8(4))

	f.Fuzz(func(t *testing.T, key string, n, rf uint8) {
		numNodes := int(n)%9 + 1 // 1..9 nodes
		nodes := make([]string, numNodes)
		rev := make([]string, numNodes)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("node-%02d", i)
			rev[numNodes-1-i] = nodes[i]
		}
		r, err := NewRing(nodes, 16, int(rf))
		if err != nil {
			t.Fatalf("NewRing(%v, 16, %d): %v", nodes, rf, err)
		}

		primary := r.Primary(key)
		member := false
		for _, nd := range nodes {
			if nd == primary {
				member = true
			}
		}
		if !member {
			t.Fatalf("primary %q not a member of %v", primary, nodes)
		}

		owners := r.Owners(key)
		if len(owners) != r.RF() {
			t.Fatalf("key %q: %d owners, want RF=%d", key, len(owners), r.RF())
		}
		if owners[0] != primary {
			t.Fatalf("key %q: owners[0]=%q, primary=%q", key, owners[0], primary)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %q in %v", key, o, owners)
			}
			seen[o] = true
		}
		followers := r.Followers(primary)
		if len(followers) != len(owners)-1 {
			t.Fatalf("key %q: followers %v vs owners %v", key, followers, owners)
		}
		for i, fo := range followers {
			if owners[i+1] != fo {
				t.Fatalf("key %q: owners[1:]=%v misaligned with Followers=%v", key, owners[1:], followers)
			}
		}

		// Order-insensitivity: a peer that got the flag list reversed must
		// compute the identical placement.
		r2, err := NewRing(rev, 16, int(rf))
		if err != nil {
			t.Fatalf("NewRing(reversed): %v", err)
		}
		if got := r2.Primary(key); got != primary {
			t.Fatalf("key %q: primary differs across orderings: %q vs %q", key, got, primary)
		}
	})
}

// FuzzTopologyTransition drives a topology through an arbitrary sequence of
// joins and leaves and checks the membership-change invariants the runtime
// leans on: every successful transition bumps the epoch by exactly one,
// membership stays sorted and duplicate-free, a join only moves keys TO the
// joiner and a leave only moves keys FROM the leaver (the ~1/N movement
// guarantee), re-adding a member or removing a non-member fails, the last
// member cannot leave, and the wire encoding round-trips every intermediate
// value bit-exactly.
func FuzzTopologyTransition(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0, 1, 2, 3})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0, 1, 1, 1})
	f.Add(uint8(5), uint8(3), []byte{1, 0, 1, 0, 255, 128})
	f.Add(uint8(2), uint8(2), []byte{})
	f.Add(uint8(4), uint8(7), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("fuzz.metric.%02d{host=h%d}", i, i%5)
	}

	f.Fuzz(func(t *testing.T, n, rf uint8, ops []byte) {
		members := make([]Member, int(n)%5+1)
		for i := range members {
			id := fmt.Sprintf("seed-%02d", i)
			members[i] = Member{ID: id, Addr: "mem://" + id}
		}
		topo, err := NewTopology(1, members, 16, int(rf)%4+1)
		if err != nil {
			t.Fatalf("NewTopology(%d members, rf %d): %v", len(members), int(rf)%4+1, err)
		}
		if len(ops) > 24 {
			ops = ops[:24]
		}
		nextID := 0
		for _, op := range ops {
			before := topo
			prim := make(map[string]string, len(keys))
			for _, k := range keys {
				prim[k] = before.Ring().Primary(k)
			}
			var moverID string // the only node allowed to gain or lose keys
			if op%2 == 0 {
				m := Member{ID: fmt.Sprintf("j-%03d", nextID), Addr: fmt.Sprintf("mem://j-%03d", nextID)}
				nextID++
				next, err := topo.WithJoined(m)
				if err != nil {
					t.Fatalf("WithJoined(%s) on %d members: %v", m.ID, len(topo.Members), err)
				}
				if _, err := next.WithJoined(m); err == nil {
					t.Fatalf("re-joining member %s did not fail", m.ID)
				}
				moverID = m.ID
				topo = next
				for _, k := range keys {
					if got := topo.Ring().Primary(k); got != prim[k] && got != moverID {
						t.Fatalf("join of %s moved key %q %s -> %s (only the joiner may gain keys)",
							moverID, k, prim[k], got)
					}
				}
			} else {
				idx := int(op/2) % len(topo.Members)
				id := topo.Members[idx].ID
				next, err := topo.WithLeft(id)
				if len(topo.Members) == 1 {
					if err == nil {
						t.Fatal("last member left without error")
					}
					continue
				}
				if err != nil {
					t.Fatalf("WithLeft(%s) of %d members: %v", id, len(topo.Members), err)
				}
				if _, err := next.WithLeft(id); err == nil {
					t.Fatalf("removing departed member %s twice did not fail", id)
				}
				moverID = id
				topo = next
				for _, k := range keys {
					if got := topo.Ring().Primary(k); got != prim[k] && prim[k] != moverID {
						t.Fatalf("leave of %s moved key %q %s -> %s (only the leaver's keys may move)",
							moverID, k, prim[k], got)
					}
				}
			}

			if topo.Epoch != before.Epoch+1 {
				t.Fatalf("transition bumped epoch %d -> %d, want +1", before.Epoch, topo.Epoch)
			}
			seen := map[string]bool{}
			for i, m := range topo.Members {
				if m.ID == "" || seen[m.ID] {
					t.Fatalf("member %d invalid or duplicate: %q", i, m.ID)
				}
				seen[m.ID] = true
				if i > 0 && topo.Members[i-1].ID >= m.ID {
					t.Fatalf("members unsorted at %d: %q >= %q", i, topo.Members[i-1].ID, m.ID)
				}
			}

			rt, err := decodeTopology(encodeTopology(topo))
			if err != nil {
				t.Fatalf("round-trip decode: %v", err)
			}
			if rt.Epoch != topo.Epoch || rt.VNodes != topo.VNodes || rt.RF != topo.RF ||
				len(rt.Members) != len(topo.Members) {
				t.Fatalf("round-trip mismatch: %+v vs %+v", rt, topo)
			}
			for i, m := range topo.Members {
				if rt.Members[i] != m {
					t.Fatalf("round-trip member %d: %+v vs %+v", i, rt.Members[i], m)
				}
			}
		}
	})
}

// queryProtoSeeds are well-formed peer query frames: a request for every live
// op and each retired op (2, 3), responses with found and not-found keys and
// a non-zero tier step under every op, an EpochMismatch refusal and a
// whole-request error.
func queryProtoSeeds() (seeds []struct {
	op      queryOp
	payload []byte
}) {
	add := func(op queryOp, payload []byte) {
		seeds = append(seeds, struct {
			op      queryOp
			payload []byte
		}{op, payload})
	}
	pa := timeseries.Partial{Count: 3, Sum: 6.5, Min: -1, Max: 4, FirstT: 1000, FirstV: -1, LastT: 3000, LastV: 4}
	results := map[queryOp]keyResult{
		opReducePartial: {Found: true, TierStep: timeseries.TierStep1m, Partial: pa},
		opReduceFull:    {Found: true, TierStep: timeseries.TierStep1h, Value: 2.25, Count: 3},
		opAggFull:       {Found: true, Points: []timeseries.AggPoint{{Start: 0, Value: 1.5}, {Start: 60_000, Value: math.Inf(1)}}},
		opSelect:        {Found: true, ID: metric.ID{Name: "power", Labels: metric.NewLabels("node", "n0", "rack", "r1")}},
		// Times that fall back, a decimal value column.
		opSamples: {Found: true, Times: []int64{1000, 61_000, -5, math.MaxInt64}, Vals: []float64{2.25, -0.5, 300, 1e-3}},
		// A retired op's response carries only the common prefix here; the
		// decoder must refuse it before reading any of it.
		2: {Found: true, TierStep: timeseries.TierStep1h},
		3: {Found: true},
	}
	for _, op := range []queryOp{opReducePartial, 2, opReduceFull, opAggFull, 3, opSelect, opSamples} {
		add(op, encodeQueryRequest(&queryRequest{
			Op: op, Epoch: 7, ReplicaOf: "n2", Fn: timeseries.AggP95,
			From: -5, To: 7_200_000, Step: 60_000, Keys: []string{"power{node=n0}", ""},
			Match: metric.ID{Name: "power", Labels: metric.NewLabels("site", "vdc")},
		}))
		res := results[op]
		add(op, encodeQueryResponse(op, &queryResponse{Promoted: true, ReplSeq: 4, ReplOff: 99, Results: []keyResult{res, {}, res}}))
	}
	add(opSelect, encodeQueryRequest(&queryRequest{Op: opSelect}))
	add(opSelect, encodeQueryResponse(opSelect, &queryResponse{}))
	// A raw value column (NaN and -0 are not decimals), and an empty one.
	add(opSamples, encodeQueryResponse(opSamples, &queryResponse{Results: []keyResult{
		{Found: true, Times: []int64{5, 6, 7}, Vals: []float64{math.NaN(), math.Copysign(0, -1), 0.1}},
		{Found: true},
	}}))
	for _, bad := range malformedColumns() {
		add(bad.op, bad.payload)
	}
	add(opReducePartial, encodeQueryResponse(opReducePartial, &queryResponse{EpochMismatch: true, Epoch: 9}))
	add(opAggFull, encodeQueryResponse(opAggFull, &queryResponse{Err: "window too wide"}))
	return seeds
}

// FuzzQueryProto feeds arbitrary bytes to the peer query codec, which parses
// what another process sent: decoding never panics and never sizes a slice
// past what the payload could hold, a retired or unknown op is an error on
// both sides, and whatever decodes re-encodes to a fixed point that keeps
// every key's tier step.
func FuzzQueryProto(f *testing.F) {
	for _, s := range queryProtoSeeds() {
		f.Add(uint8(s.op), s.payload)
	}
	f.Fuzz(func(t *testing.T, opByte uint8, payload []byte) {
		op := queryOp(opByte)
		if q, err := decodeQueryRequest(payload); err == nil {
			if checkOp(q.Op) != nil {
				t.Fatalf("request decoded with op %d", q.Op)
			}
			if len(q.Keys) > len(payload) {
				t.Fatalf("%d keys from %d bytes", len(q.Keys), len(payload))
			}
			again, err := decodeQueryRequest(encodeQueryRequest(q))
			if err != nil || !reflect.DeepEqual(again, q) {
				t.Fatalf("request round trip: %+v -> %+v (%v)", q, again, err)
			}
		}
		resp, err := decodeQueryResponse(op, payload)
		if checkOp(op) != nil {
			if err == nil {
				t.Fatalf("response decoded under op %d", op)
			}
			return
		}
		if err != nil {
			return
		}
		held := len(resp.Results)
		for i := range resp.Results {
			held += len(resp.Results[i].Points) + len(resp.Results[i].Times) + len(resp.Results[i].ID.Labels)
		}
		if held > len(payload) {
			t.Fatalf("%d decoded elements from %d bytes", held, len(payload))
		}
		// NaN payloads defeat DeepEqual, so compare encodings: one re-encode
		// canonicalizes varints, a second must change nothing.
		enc := encodeQueryResponse(op, resp)
		again, err := decodeQueryResponse(op, enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(encodeQueryResponse(op, again), enc) {
			t.Fatal("response encoding is not a fixed point")
		}
		for i := range resp.Results {
			if again.Results[i].TierStep != resp.Results[i].TierStep {
				t.Fatalf("key %d: tier step %d -> %d", i, resp.Results[i].TierStep, again.Results[i].TierStep)
			}
		}
	})
}

// malformedColumns are selector and sample-column payloads another process
// could send that must decode to an error.
func malformedColumns() (out []struct {
	name    string
	op      queryOp
	payload []byte
	request bool
}) {
	add := func(name string, op queryOp, payload []byte, request bool) {
		out = append(out, struct {
			name    string
			op      queryOp
			payload []byte
			request bool
		}{name, op, payload, request})
	}
	sel := encodeQueryRequest(&queryRequest{Op: opSelect, Match: metric.ID{Name: "power", Labels: metric.NewLabels("node", "n0")}})
	add("truncated selector", opSelect, sel[:len(sel)-2], true)
	sel0 := encodeQueryRequest(&queryRequest{Op: opSelect}) // ends in label count 0
	add("selector label count past the payload", opSelect, append(sel0[:len(sel0)-1], 0xff, 0xff, 0x03), true)
	col := encodeQueryResponse(opSamples, &queryResponse{Results: []keyResult{{Found: true, Times: []int64{1, 2}, Vals: []float64{0.5, 1.5}}}})
	add("truncated sample column", opSamples, col[:len(col)-1], false)
	coding := append([]byte(nil), col...)
	coding[len(coding)-4] = 2 // the coding byte before a decimal exponent and two varints
	add("unknown value coding", opSamples, coding, false)
	exp := append([]byte(nil), col...)
	exp[len(exp)-3] = 16 // decimal exponent past 10^15
	add("decimal exponent out of range", opSamples, exp, false)
	count := encodeQueryResponse(opSamples, &queryResponse{Results: []keyResult{{Found: true}}})
	add("sample count past the payload", opSamples, append(count[:len(count)-2], 0xff, 0xff, 0xff, 0x7f), false)
	return out
}

// TestQueryProtoRefusesMalformedColumns: a selector or sample column that is
// cut short, counts past its payload, or codes its values in no known way
// is an error, not a panic or a short answer.
func TestQueryProtoRefusesMalformedColumns(t *testing.T) {
	for _, bad := range malformedColumns() {
		var err error
		if bad.request {
			_, err = decodeQueryRequest(bad.payload)
		} else {
			_, err = decodeQueryResponse(bad.op, bad.payload)
		}
		if err == nil {
			t.Errorf("%s: decoded", bad.name)
		}
	}
}

// TestQueryProtoRefusesRetiredOp pins op codes 2 (the deleted bucketed-partials
// scatter) and 3 (the deleted raw-values sweep) as reserved: neither side of
// the codec accepts them.
func TestQueryProtoRefusesRetiredOp(t *testing.T) {
	for _, op := range []queryOp{2, 3} {
		req := encodeQueryRequest(&queryRequest{Op: op, From: 0, To: 10, Step: 5, Keys: []string{"k"}})
		if q, err := decodeQueryRequest(req); err == nil {
			t.Fatalf("request with op %d decoded: %+v", op, q)
		}
		resp := encodeQueryResponse(op, &queryResponse{Results: []keyResult{{}}})
		if r, err := decodeQueryResponse(op, resp); err == nil {
			t.Fatalf("response under op %d decoded: %+v", op, r)
		}
	}
}
