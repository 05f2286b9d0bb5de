package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/bench/feed"
	"repro/bench/gen"
	"repro/bench/report"
	"repro/internal/wire"
)

// pingTimeout bounds a closed-loop barrier; a Pong later than this is a
// failed operation.
const pingTimeout = 30 * time.Second

// countingConn counts the bytes the ingest connection carries.
type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// ingest is the write door: one wire connection to one odad.
type ingest struct {
	client  *wire.Client
	written atomic.Int64
}

func dialIngest(addr string) (*ingest, error) {
	in := &ingest{}
	c, err := wire.DialWith(func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, written: &in.written}, nil
	}, addr)
	if err != nil {
		return nil, err
	}
	// Reached through an optional interface so this file still builds on
	// the day the dictionary protocol is the only one and the switch goes.
	if d, ok := any(c).(interface{ EnableDict() }); ok {
		d.EnableDict()
	}
	in.client = c
	return in, nil
}

// barrier returns once odad has handled every batch sent before it: the
// server answers a Ping on the connection's own goroutine, after the
// handler of each earlier frame returned.
func (in *ingest) barrier() error {
	_, err := in.client.Ping(pingTimeout)
	return err
}

// loopResult describes one closed loop.
type loopResult struct {
	wall    time.Duration // first tick to final Pong
	waiting time.Duration // of which inside barriers: the generator was idle
	rates   []float64     // samples/s of each barrier interval
}

// barrierEvery is how many ticks go between two Ping barriers.
const barrierEvery = 8

// closedLoop sends n ticks as fast as odad takes them, with a Ping barrier
// every barrierEvery ticks and after the last.
func closedLoop(f feed.Feeder, in *ingest, n int) (loopResult, error) {
	var res loopResult
	start := time.Now()
	mark, sent := start, f.Sent()
	for k := 0; k < n; k++ {
		f.Tick()
		if k%barrierEvery != barrierEvery-1 && k != n-1 {
			continue
		}
		b := time.Now()
		if err := in.barrier(); err != nil {
			return res, err
		}
		now := time.Now()
		res.waiting += now.Sub(b)
		res.rates = append(res.rates, float64(f.Sent()-sent)/now.Sub(mark).Seconds())
		mark, sent = now, f.Sent()
	}
	res.wall = time.Since(start)
	return res, nil
}

// httpDoor is one keep-alive HTTP connection to one odad.
type httpDoor struct {
	base   string
	client *http.Client
}

func newHTTPDoor(addr string) *httpDoor {
	return &httpDoor{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		},
	}
}

func (d *httpDoor) close() { d.client.CloseIdleConnections() }

// get reads the whole body. Anything but a 200 without X-ODA-Partial is an
// error: on a healthy cluster a degraded answer is a failure.
func (d *httpDoor) get(pathQuery string) ([]byte, error) {
	resp, err := d.client.Get(d.base + pathQuery)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", pathQuery, resp.Status, body)
	}
	if p := resp.Header.Get("X-ODA-Partial"); p != "" {
		return nil, fmt.Errorf("%s: partial answer (%s)", pathQuery, p)
	}
	return body, nil
}

// reduce runs one /query and returns (value, count).
func (d *httpDoor) reduce(key string, from, to int64, fn string) (float64, int, error) {
	body, err := d.get(gen.QueryPath(key, from, to, 0, fn))
	if err != nil {
		return 0, 0, err
	}
	var r struct {
		Value float64 `json:"value"`
		Count int     `json:"count"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, 0, err
	}
	return r.Value, r.Count, nil
}

// probeTimeout is how long a sent sample may stay invisible.
const probeTimeout = 5 * time.Second

// probe polls until the sample of series key at time t is queryable. Each
// poll widens the window by 1 ms, so each is a distinct cache key: a cached
// count=0 would otherwise hide the sample for the cache's whole TTL.
func (d *httpDoor) probe(key string, t int64) error {
	deadline := time.Now().Add(probeTimeout)
	for k := int64(1); ; k++ {
		_, n, err := d.reduce(key, t-k, t+1, "count")
		if err == nil && n >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("sample at %d of %s not visible after %v", t, key, probeTimeout)
			}
			return err
		}
	}
}

// openLoop is the measured mixed phase: a writer on a schedule, a reader
// on a schedule, and a prober that checks when what the writer sent becomes
// queryable.
type openLoop struct {
	ticks     int
	tickEvery time.Duration
	tick      func() (t int64, probeKey string, err error) // sends one tick and waits for its Pong
	probeDoor *httpDoor

	queries    []gen.Query
	queryEvery time.Duration
	queryKey   func(series int) string
	queryDoor  *httpDoor
}

type openLoopResult struct {
	visible    []report.Timed
	query      [gen.NumClasses][]report.Timed
	probes     int // probes started
	probeFails int
	queryFails int
	tickFails  int // ticks whose Pong did not come
	firstErr   error
	writerLate []float64 // ms each tick started after it was due
	readerLate []float64
	writerBusy time.Duration
	readerBusy time.Duration
	wall       time.Duration
}

// waitUntil sleeps until due and returns the instant the operation's clock
// starts and how late the generator ran. An operation that was already due
// — the one before it overran — is timed from when it was due, so a stall
// is charged to every request it delayed. One the generator had to sleep
// for is timed from when it woke: the timer's overshoot (about a
// millisecond on this VM, five times a point query) is the generator's
// imprecision, not the program's latency, and is reported as lateness.
func waitUntil(due time.Time) (start time.Time, late time.Duration) {
	now := time.Now()
	if !now.Before(due) {
		return due, now.Sub(due)
	}
	time.Sleep(due.Sub(now))
	now = time.Now()
	return now, now.Sub(due)
}

// sentTick is a tick on its way to the prober.
type sentTick struct {
	key  string
	t    int64
	from time.Time     // when the tick's clock started
	at   time.Duration // when it was due, since the phase began
}

func (ol *openLoop) run() openLoopResult {
	var res openLoopResult
	start := time.Now()

	readerDone := make(chan struct{})
	var reader openLoopResult
	go func() {
		defer close(readerDone)
		for i, q := range ol.queries {
			due := start.Add(time.Duration(i) * ol.queryEvery)
			from, late := waitUntil(due)
			reader.readerLate = append(reader.readerLate, float64(late)/1e6)
			begin := time.Now()
			_, err := ol.queryDoor.get(q.Path(ol.queryKey(q.Series)))
			end := time.Now()
			reader.readerBusy += end.Sub(begin)
			if err != nil {
				reader.queryFails++
				if reader.firstErr == nil {
					reader.firstErr = err
				}
				continue
			}
			reader.query[q.Class] = append(reader.query[q.Class], report.Timed{At: due.Sub(start), Ms: float64(end.Sub(from)) / 1e6})
		}
	}()

	// The prober polls for one tick at a time on its own connection. The
	// writer never waits for it: a tick sent while the prober is still
	// polling for an earlier one goes unprobed, so a slow path to
	// visibility (a cluster's 200 ms forward flush) thins the probes out
	// instead of pushing the writer off its schedule.
	probeDone := make(chan struct{})
	toProbe := make(chan sentTick)
	var prober openLoopResult
	go func() {
		defer close(probeDone)
		for st := range toProbe {
			prober.probes++
			err := ol.probeDoor.probe(st.key, st.t)
			if err != nil {
				prober.probeFails++
				if prober.firstErr == nil {
					prober.firstErr = err
				}
				continue
			}
			prober.visible = append(prober.visible, report.Timed{At: st.at, Ms: float64(time.Since(st.from)) / 1e6})
		}
	}()

	for k := 0; k < ol.ticks; k++ {
		due := start.Add(time.Duration(k) * ol.tickEvery)
		from, late := waitUntil(due)
		res.writerLate = append(res.writerLate, float64(late)/1e6)
		begin := time.Now()
		t, key, err := ol.tick()
		res.writerBusy += time.Since(begin)
		if err != nil {
			res.tickFails++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		select {
		case toProbe <- sentTick{key: key, t: t, from: from, at: due.Sub(start)}:
		default:
		}
	}
	close(toProbe)
	<-probeDone
	<-readerDone
	res.wall = time.Since(start)
	res.visible, res.probes, res.probeFails = prober.visible, prober.probes, prober.probeFails
	res.query, res.queryFails = reader.query, reader.queryFails
	res.readerLate, res.readerBusy = reader.readerLate, reader.readerBusy
	for _, err := range []error{prober.firstErr, reader.firstErr} {
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	return res
}
