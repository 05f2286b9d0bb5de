package network

import (
	"fmt"
	"testing"
)

func TestTopologyShape(t *testing.T) {
	n := New(DefaultConfig(64))
	if n.NumEdges() != 4 {
		t.Fatalf("edges = %d", n.NumEdges())
	}
	if n.EdgeOf(0) != 0 || n.EdgeOf(15) != 0 || n.EdgeOf(16) != 1 || n.EdgeOf(63) != 3 {
		t.Fatal("EdgeOf mapping wrong")
	}
	// Degenerate configs still work.
	tiny := New(Config{Nodes: 1, UplinkCapacity: 1})
	if tiny.NumEdges() != 1 {
		t.Fatal("tiny network edges")
	}
}

func TestIntraEdgeJobHasNoUplinkTraffic(t *testing.T) {
	n := New(DefaultConfig(64))
	n.Assign("job1", []int{0, 1, 2, 3}, 1e9)
	slow := n.Step(1)
	if slow["job1"] != 1 {
		t.Fatalf("intra-edge job slowed: %v", slow["job1"])
	}
	for i, u := range n.UplinkUtilization() {
		if u != 0 {
			t.Fatalf("uplink %d loaded by intra-edge job: %v", i, u)
		}
	}
}

func TestCrossEdgeJobLoadsUplinks(t *testing.T) {
	n := New(DefaultConfig(64))
	// Half the nodes on edge 0, half on edge 1: all traffic is remote-ish.
	n.Assign("job1", []int{0, 1, 16, 17}, 5e9)
	n.Step(1)
	util := n.UplinkUtilization()
	if util[0] == 0 || util[1] == 0 {
		t.Fatalf("cross-edge job did not load uplinks: %v", util)
	}
	if util[2] != 0 || util[3] != 0 {
		t.Fatalf("unrelated uplinks loaded: %v", util)
	}
}

func TestContentionSlowdown(t *testing.T) {
	cfg := DefaultConfig(64)
	cfg.UplinkCapacity = 10e9
	n := New(cfg)
	// Two jobs each pushing 8 GB/s across edge 0's uplink: 16 GB/s demand
	// on a 10 GB/s link -> utilization 1.6 -> both slow down 1.6x.
	n.Assign("a", []int{0, 16}, 8e9)
	n.Assign("b", []int{1, 17}, 8e9)
	slow := n.Step(1)
	if slow["a"] < 1.5 || slow["b"] < 1.5 {
		t.Fatalf("contention not detected: %v", slow)
	}
	contending := n.ContendingJobs()
	if len(contending) != 2 || contending[0] != "a" || contending[1] != "b" {
		t.Fatalf("ContendingJobs = %v", contending)
	}
	// Removing one job clears the contention.
	n.Remove("b")
	slow = n.Step(1)
	if slow["a"] != 1 {
		t.Fatalf("after removal slowdown = %v", slow["a"])
	}
	if len(n.ContendingJobs()) != 0 {
		t.Fatal("contention should clear")
	}
	if n.Slowdown("b") != 1 {
		t.Fatal("removed job should report slowdown 1")
	}
}

func TestSingleNodeJobNeverContends(t *testing.T) {
	n := New(DefaultConfig(32))
	n.Assign("solo", []int{5}, 100e9)
	slow := n.Step(1)
	if slow["solo"] != 1 {
		t.Fatalf("single-node job slowed: %v", slow)
	}
}

func TestByteCountersAccumulate(t *testing.T) {
	cfg := DefaultConfig(32)
	n := New(cfg)
	n.Assign("a", []int{0, 16}, 1e9)
	n.Step(10)
	n.Step(10)
	readings := n.Source().Collect(0)
	var counter float64
	for _, r := range readings {
		if r.ID.Name == "net_uplink_bytes_total" {
			if edge, _ := r.ID.Labels.Get("edge"); edge == "e00" {
				counter = r.Value
			}
		}
	}
	if counter != 2e10 {
		t.Fatalf("edge 0 bytes = %v, want 2e10", counter)
	}
	// Utilization metrics present for every edge.
	var utils int
	for _, r := range readings {
		if r.ID.Name == "net_uplink_utilization" {
			utils++
		}
	}
	if utils != n.NumEdges() {
		t.Fatalf("utilization readings = %d", utils)
	}
}

func TestCountersSaturateAtCapacity(t *testing.T) {
	cfg := DefaultConfig(32)
	cfg.UplinkCapacity = 1e9
	n := New(cfg)
	n.Assign("a", []int{0, 16}, 100e9) // far beyond capacity
	n.Step(1)
	readings := n.Source().Collect(0)
	for _, r := range readings {
		if r.ID.Name == "net_uplink_bytes_total" && r.Value > 1e9+1 {
			t.Fatalf("counter exceeded capacity: %v", r.Value)
		}
	}
}

func TestReassignReplacesFootprint(t *testing.T) {
	n := New(DefaultConfig(64))
	n.Assign("a", []int{0, 16}, 5e9)
	n.Step(1)
	n.Assign("a", []int{0, 1}, 5e9) // now intra-edge
	n.Step(1)
	if u := n.UplinkUtilization()[0]; u != 0 {
		t.Fatalf("stale footprint: %v", u)
	}
}

// TestUplinkLoadIndependentOfMapOrder: many flows with demands that do not
// sum exactly share one uplink; the load must be the same on every rebuild,
// whatever order the flow map iterates in.
func TestUplinkLoadIndependentOfMapOrder(t *testing.T) {
	load := func() float64 {
		n := New(DefaultConfig(32))
		for j := 0; j < 24; j++ {
			n.Assign(fmt.Sprintf("job%02d", j), []int{j % 16, 16 + j%16}, 1e9/float64(3+j))
		}
		n.Step(1)
		return n.UplinkUtilization()[0]
	}
	want := load()
	for i := 0; i < 50; i++ {
		if got := load(); got != want {
			t.Fatalf("rebuild %d: uplink utilization %v, first build %v", i, got, want)
		}
	}
}
