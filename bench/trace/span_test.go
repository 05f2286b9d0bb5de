package main

import (
	"testing"
	"time"
)

// fakeClock makes span arithmetic exact: layers "work" by advancing it.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) tracer() *tracer {
	return &tracer{now: func() time.Duration { return c.now }}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	c := &fakeClock{}
	tr := c.tracer()
	root := tr.begin("a", -1)
	c.now += 10 // a's own work
	b := tr.begin("b", root)
	c.now += 30
	cc := tr.begin("c", b)
	c.now += 5
	tr.end(cc)
	c.now += 1
	tr.end(b)
	c.now += 4
	tr.end(root)
	self := selfTimes(tr.spans)
	want := map[string]time.Duration{"a": 14, "b": 31, "c": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestSelfTimeOverlappingAndClippedChildren(t *testing.T) {
	// Children recorded from other goroutines can overlap each other and
	// outlive their parent; the covered part counts once and only inside
	// the parent.
	spans := []span{
		{name: "p", start: 0, end: 100, parent: -1},
		{name: "k", start: 10, end: 50, parent: 0},
		{name: "k", start: 30, end: 70, parent: 0},   // overlaps the first by 20
		{name: "k", start: 90, end: 140, parent: 0},  // 40 past the parent's end
		{name: "open", start: 95, end: 0, parent: 0}, // never ended: ignored
	}
	self := selfTimes(spans)
	if self["p"] != 100-(60+10) {
		t.Errorf("self[p] = %d, want 30", self["p"])
	}
	if _, ok := self["open"]; ok {
		t.Error("an open span must not be counted")
	}
}

// layeredRun is a five-layer synthetic ingest path: each layer does its own
// work and calls the next. slow adds extra work inside one layer's wrapper,
// the way the benchmark would inject a busy-wait at a boundary.
func layeredRun(batches int, slow string, extra time.Duration) map[string]time.Duration {
	c := &fakeClock{}
	tr := c.tracer()
	st := &stack{t: tr}
	work := []struct {
		name string
		own  time.Duration
	}{{"scrape", 200}, {"sink", 300}, {"decode", 250}, {"handler", 150}, {"store", 600}}
	var call func(i int)
	call = func(i int) {
		if i == len(work) {
			return
		}
		st.push(work[i].name)
		c.now += work[i].own
		if work[i].name == slow {
			c.now += extra
		}
		call(i + 1)
		st.pop()
	}
	for b := 0; b < batches; b++ {
		c.now += 7 // the loop's own overhead, attributed to nothing
		call(0)
	}
	return selfTimes(tr.spans)
}

// The ROADMAP's sensitivity case: a slowdown injected at one boundary, 20 %
// of the end-to-end cost, must land on that layer (>= 80 % of it) and move
// every other layer by less than 5 %.
func TestInjectedSlowdownIsAttributedToItsLayer(t *testing.T) {
	const batches = 1000
	base := layeredRun(batches, "", 0)
	var endToEnd time.Duration
	for _, d := range base {
		endToEnd += d
	}
	extra := endToEnd / batches / 5
	for _, layer := range []string{"scrape", "sink", "decode", "handler", "store"} {
		slowed := layeredRun(batches, layer, extra)
		injected := extra * batches
		if got := slowed[layer] - base[layer]; float64(got) < 0.8*float64(injected) {
			t.Errorf("%s: %d of the injected %d attributed to it, want >= 80 %%", layer, got, injected)
		}
		for other, d := range base {
			if other == layer {
				continue
			}
			if moved := float64(slowed[other]-d) / float64(d); moved > 0.05 || moved < -0.05 {
				t.Errorf("slowing %s moved %s by %.1f %%, want < 5 %%", layer, other, moved*100)
			}
		}
	}
}
