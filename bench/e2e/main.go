// Command e2e is the repository's end-to-end benchmark: it builds the real
// cmd/odad, runs it as a subprocess and drives it only through its public
// doors — collector agents over wire v2 on loopback TCP on the way in,
// HTTP /query, /query_range and /analyze on the way out, SIGINT/SIGKILL
// and restart for recovery. See bench/README.md.
//
//	bash bench/run.sh --workload all --seed 1
//
// It prints one ledger row per workload and, last, the result line the
// benchmark driver reads. With --trace 1 it builds and runs bench/trace
// instead, which prints the per-layer metrics; the two are separate
// packages so an internal rename can break the breakdown without breaking
// the scoreboard.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/bench/gen"
	"repro/bench/report"
)

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "generator seed")
	seconds := flag.Float64("seconds", gen.NominalSeconds, "measured seconds the phase counts are sized for")
	trace := flag.Int("trace", 0, "1: run the per-layer traced breakdown (bench/trace) instead")
	flag.Parse()
	if *trace != 0 {
		os.Exit(runTrace())
	}
	code, err := runAll(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// runTrace builds the trace binary next to this one and hands over.
func runTrace() int {
	bin := filepath.Join(buildDir, "trace")
	build := exec.Command("go", "build", "-C", "bench", "-o", filepath.Join("..", bin), "./trace")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: building bench/trace:", err)
		return 1
	}
	cmd := exec.Command(bin, os.Args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: bench/trace:", err)
		return 1
	}
	return 0
}

func runAll(workload string, seed int64, seconds float64) (int, error) {
	names, err := report.MetricNames("end_to_end")
	if err != nil {
		return 1, err
	}
	var todo []gen.Workload
	if workload == "all" {
		todo = gen.Workloads
	} else {
		sp, err := gen.FindWorkload(workload)
		if err != nil {
			return 2, err
		}
		todo = []gen.Workload{sp}
	}
	env := report.CurrentEnv()
	code := 0
	for _, sp := range todo {
		correct, err := runOne(env, sp, seed, seconds, names)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", sp.Name, err)
		}
		if !correct {
			code = 1
		}
	}
	return code, nil
}

// runOne runs one workload under its own harness, so every process and
// file it made is gone before the next starts.
func runOne(env report.Env, sp gen.Workload, seed int64, seconds float64, names []string) (bool, error) {
	h, err := newHarness()
	if err != nil {
		return false, err
	}
	defer h.close()
	r := &run{
		h: h, sp: sp.Scaled(seconds), seed: seed,
		ops: map[string][2]int{}, metrics: map[string]report.Metric{}, diagnostics: map[string]report.Metric{},
	}
	if err := r.execute(); err != nil {
		for _, n := range r.nodes {
			fmt.Fprintln(os.Stderr, n.logTail())
		}
		return false, err
	}
	row := report.Row{
		Env: env, Seed: seed, Workload: sp.Name, Seconds: seconds,
		Ops: r.ops, Metrics: r.metrics, Diagnostics: r.diagnostics,
	}
	for _, c := range r.ops {
		row.Attempted += c[0]
		row.Failed += c[1]
	}
	correct := len(r.problems) == 0
	return correct, report.Emit(os.Stdout, row, correct, names)
}
