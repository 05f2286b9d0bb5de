package cluster

import (
	"bytes"
	"strings"
	"testing"
)

// TestPumpErrorsReachStats: a pump that fails is counted on its replica and
// its error kept, so /stats shows why a replica never bootstraps. Without
// durable stores every leader refuses the pull.
func TestPumpErrorsReachStats(t *testing.T) {
	nodes, _ := startCluster(t, []string{"n1", "n2", "n3"}, 2, false, nil)
	for i := 0; i < 3; i++ {
		for _, n := range nodes {
			n.router.PumpReplication()
		}
	}
	for _, n := range nodes {
		reps := n.router.Stats().Replicas
		if len(reps) == 0 {
			t.Fatalf("%s follows no leader at RF 2", n.id)
		}
		for _, rs := range reps {
			if rs.Bootstrapped {
				t.Fatalf("%s: replica of %s bootstrapped from a leader with no durable store", n.id, rs.Leader)
			}
			if rs.PumpErrors < 3 {
				t.Fatalf("%s: replica of %s counts %d pump errors after 3 failed pumps", n.id, rs.Leader, rs.PumpErrors)
			}
			if !strings.Contains(rs.LastError, "no durable store") {
				t.Fatalf("%s: replica of %s last_error %q, want the leader's refusal", n.id, rs.Leader, rs.LastError)
			}
		}
	}
}

// TestReplPullResponseViews: a pull response is encoded into one buffer
// sized from its records, and decoded with every record and the snapshot a
// view of the frame payload, byte for byte what was sent.
func TestReplPullResponseViews(t *testing.T) {
	resp := &replPullResponse{Snapshot: []byte("snapshot bytes"), NextSeq: 3, NextOff: 1 << 20, LagBytes: 77}
	for _, n := range []int{1, 127, 128, 16 << 10, 300 << 10} {
		resp.Records = append(resp.Records, bytes.Repeat([]byte{byte(n)}, n))
	}
	if allocs := testing.AllocsPerRun(20, func() { encodeReplPullResponse(resp) }); allocs != 1 {
		t.Fatalf("encoding allocated %v times, want once", allocs)
	}
	payload := encodeReplPullResponse(resp)
	got, err := decodeReplPullResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextSeq != resp.NextSeq || got.NextOff != resp.NextOff || got.LagBytes != resp.LagBytes || len(got.Records) != len(resp.Records) {
		t.Fatalf("decoded %+v", got)
	}
	if !bytes.Equal(got.Snapshot, resp.Snapshot) {
		t.Fatal("snapshot changed in transit")
	}
	for i, rec := range got.Records {
		if !bytes.Equal(rec, resp.Records[i]) {
			t.Fatalf("record %d changed in transit", i)
		}
	}
	// A view sees the payload change under it; a copy would not.
	for i := range payload {
		payload[i] ^= 0xff
	}
	if bytes.Equal(got.Snapshot, resp.Snapshot) {
		t.Fatal("snapshot was copied out of the payload")
	}
	for i, rec := range got.Records {
		if bytes.Equal(rec, resp.Records[i]) {
			t.Fatalf("record %d was copied out of the payload", i)
		}
	}
}
