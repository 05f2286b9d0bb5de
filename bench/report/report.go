// Package report holds the arithmetic and the output formats the two
// benchmark binaries share: percentiles, the per-segment p99, the ledger
// row and the driver's result line.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// SegmentSeconds is the width of the segments a p99 is taken over.
const SegmentSeconds = 5

// Percentile returns the p-quantile (0..1) of vals by linear interpolation
// between closest ranks; 0 for an empty slice. vals is sorted in place.
func Percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0]
	}
	pos := p * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

// Median is Percentile(vals, 0.5).
func Median(vals []float64) float64 { return Percentile(vals, 0.5) }

// Timed is one latency observation and when (since the phase began) the
// operation was due.
type Timed struct {
	At time.Duration
	Ms float64
}

// Latency summarises a series of timed operations.
type Latency struct {
	N   int
	P50 float64
	// P99 is the median of the p99s of consecutive SegmentSeconds-wide
	// segments, so one GC pause or fsync stall owns one segment, not the
	// metric. A trailing segment shorter than half a segment joins the one
	// before it.
	P99 float64
}

// Summarise computes a Latency over obs.
func Summarise(obs []Timed) Latency {
	if len(obs) == 0 {
		return Latency{}
	}
	all := make([]float64, len(obs))
	var last time.Duration
	for i, o := range obs {
		all[i] = o.Ms
		last = max(last, o.At)
	}
	seg := SegmentSeconds * time.Second
	nseg := int(last/seg) + 1
	if nseg > 1 && last%seg < seg/2 {
		nseg--
	}
	segs := make([][]float64, nseg)
	for _, o := range obs {
		i := min(int(o.At/seg), nseg-1)
		segs[i] = append(segs[i], o.Ms)
	}
	var p99s []float64
	for _, s := range segs {
		if len(s) > 0 {
			p99s = append(p99s, Percentile(s, 0.99))
		}
	}
	return Latency{N: len(obs), P50: Median(all), P99: Median(p99s)}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile (omitted for plain values).
	N int `json:"n,omitempty"`
}

// Env is the part of a ledger row that names the machine and the code.
type Env struct {
	Commit     string `json:"commit"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	Go         string `json:"go"`
}

// Row is one ledger row: the ROADMAP schema plus the operation counts.
type Row struct {
	Env
	Seed      int64             `json:"seed"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Ops       map[string][2]int `json:"ops,omitempty"` // kind -> {attempted, failed}
	// Metrics are every metric measured; BENCHMARK.json names the ones with
	// a regression bound.
	Metrics map[string]Metric `json:"metrics"`
	// Diagnostics are context for reading the metrics: what the generator
	// side cost, how late it ran, the raw counts behind the ratios.
	Diagnostics map[string]Metric `json:"diagnostics,omitempty"`
}

// CurrentEnv reads the commit (when the checkout is a git repository), the
// CPU model and the Go runtime's view of the machine.
func CurrentEnv() Env {
	e := Env{Commit: "unknown", CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// MetricNames reads the names of one section ("end_to_end" or "per_layer")
// of BENCHMARK.json in the working directory. The result line is built from
// it, so the contract and the binaries cannot drift apart.
func MetricNames(section string) ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the checkout root: %w", err)
	}
	var bf map[string]json.RawMessage
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var metrics []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(bf[section], &metrics); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %s: %w", section, err)
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name
	}
	return names, nil
}

// Result is the driver's contract: the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Emit prints the ledger row, a human-readable table on stderr, and — last
// — the result line holding exactly the named metrics.
func Emit(w io.Writer, row Row, correct bool, names []string) error {
	enc, err := json.Marshal(row)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", enc)
	keys := make([]string, 0, len(row.Metrics))
	for k := range row.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := row.Metrics[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(os.Stderr, "%-18s %-36s %14.4f %s%s\n", row.Workload, k, m.Value, m.Unit, n)
	}
	fmt.Fprintf(os.Stderr, "%-18s operations attempted=%d failed=%d correct=%v\n", row.Workload, row.Attempted, row.Failed, correct)
	res := Result{Correct: correct, Attempted: row.Attempted, Failed: row.Failed, Metrics: map[string]Metric{}}
	for _, name := range names {
		m, ok := row.Metrics[name]
		if !ok {
			return fmt.Errorf("report: metric %q was not measured", name)
		}
		res.Metrics[name] = Metric{Value: m.Value, Unit: m.Unit}
	}
	enc, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", enc)
	return err
}
