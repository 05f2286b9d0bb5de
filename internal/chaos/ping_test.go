package chaos

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// TestPingSlowLinkIsAliveNotDead pins the failure detector's core
// distinction: a peer that answers slowly is alive, a peer that does not
// answer inside the timeout is treated as dead, and a severed link recovers
// through the client's redial path. Latency is injected with NetFaults so
// the test is deterministic — no real network, no sleeps hoping for timing.
func TestPingSlowLinkIsAliveNotDead(t *testing.T) {
	nf := NewNetFaults()
	defer nf.Close()
	srv := wire.NewServerListener(nf.Listener(), nil)
	defer srv.Close()

	c, err := wire.DialWith(nf.Dialer(), "chaos:mem")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Healthy link: ping answers fast.
	if _, err := c.Ping(time.Second); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}

	// Slow link: 30ms of injected write latency. The pong still arrives, so
	// the peer must read as ALIVE — and the measured RTT reflects the delay,
	// which is what lets an operator see the slowness in /stats.
	const delay = 30 * time.Millisecond
	nf.SetDelay(delay)
	rtt, err := c.Ping(2 * time.Second)
	if err != nil {
		t.Fatalf("slow ping: %v (slowness must not read as death)", err)
	}
	if rtt < delay {
		t.Fatalf("slow ping rtt = %v, want >= injected %v", rtt, delay)
	}

	// Same link, but a timeout shorter than the delay: now the probe MUST
	// fail — this is the knob that separates "slow but alive" from "gone".
	if _, err := c.Ping(5 * time.Millisecond); err == nil {
		t.Fatal("ping with timeout below link latency must fail")
	}

	// The timed-out connection is marked broken; once the latency clears,
	// the next ping redials and succeeds.
	nf.SetDelay(0)
	if _, err := c.Ping(time.Second); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
	if c.Redials() == 0 {
		t.Fatal("recovery should have gone through the redial path")
	}

	// A partitioned network refuses dials: ping fails fast, not by timeout.
	nf.SetPartition(true)
	if _, err := c.Ping(time.Second); err == nil {
		t.Fatal("ping through a partition must fail")
	}
	nf.SetPartition(false)
	if _, err := c.Ping(time.Second); err != nil {
		t.Fatalf("ping after partition heals: %v", err)
	}
	// Four pongs reached the client, so the server answered four probes. Its
	// counter increments after the pong write, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Pings() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Pings() < 4 {
		t.Fatalf("server answered %d pings, want >= 4", srv.Pings())
	}
}
