package cluster

import (
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
