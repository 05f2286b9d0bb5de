package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes lives, relative to the
// checkout root: the odad binary, the Go caches, per-run data dirs and the
// pid file. It is the only path the benchmark writes under.
const buildDir = ".bench_build"

// harness owns every odad process and temp dir of one run, and removes
// them on every exit path.
type harness struct {
	root    string // checkout root (the working directory)
	odadBin string
	runDir  string // per-run scratch, removed on close

	mu    sync.Mutex
	nodes []*node
	done  bool
}

// node is one odad process.
type node struct {
	id      string
	wire    string // ingest address
	http    string // query address
	cluster string // cluster listener address ("" on a single node)
	dataDir string
	logPath string
	args    []string

	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{}
}

func pidFile(root string) string { return filepath.Join(root, buildDir, "odad.pids") }

// newHarness refuses to start while an odad of a previous run is alive: two
// runs would share cores and the numbers of both would be wrong.
func newHarness() (*harness, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, odadBin: filepath.Join(root, buildDir, "odad")}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	if data, err := os.ReadFile(pidFile(root)); err == nil {
		for _, f := range strings.Fields(string(data)) {
			pid, _ := strconv.Atoi(f)
			if pid > 0 && isOdad(pid, h.odadBin) {
				return nil, fmt.Errorf("odad pid %d from a previous run is still alive; kill it first", pid)
			}
		}
	}
	h.runDir, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	return h, nil
}

func isOdad(pid int, bin string) bool {
	cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	return err == nil && strings.HasPrefix(string(cmdline), bin+"\x00")
}

// close kills every process group, waits for the processes and removes the
// run's files. Safe to call more than once and from the signal goroutine.
func (h *harness) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.done = true
	for _, n := range h.nodes {
		n.kill()
	}
	_ = os.RemoveAll(h.runDir)
	_ = os.Remove(pidFile(h.root))
}

func (h *harness) writePids() {
	var b strings.Builder
	for _, n := range h.nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			fmt.Fprintf(&b, "%d\n", n.cmd.Process.Pid)
		}
	}
	_ = os.WriteFile(pidFile(h.root), []byte(b.String()), 0o644)
}

// build compiles cmd/odad from the checkout's source. The Go caches live
// under buildDir (run.sh exports them), so a fresh checkout pays the full
// build once and later runs a cache lookup.
func (h *harness) build() error {
	cmd := exec.Command("go", "build", "-o", h.odadBin, "./cmd/odad")
	cmd.Dir = h.root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/odad: %v\n%s", err, out)
	}
	return nil
}

// freePorts asks the kernel for n distinct free loopback ports. They are
// released before odad binds them; nothing else on a benchmark box races
// for them in between.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	var out []string
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// newNodes lays out count nodes: addresses, data dirs and the flags that
// do not change across restarts. Every flag is one ROADMAP keeps.
func (h *harness) newNodes(count, rf int) ([]*node, error) {
	perNode := 2
	if count > 1 {
		perNode = 3
	}
	ports, err := freePorts(count * perNode)
	if err != nil {
		return nil, err
	}
	var nodes []*node
	var peers []string
	for i := 0; i < count; i++ {
		n := &node{
			id:   string(rune('a' + i)),
			wire: ports[i*perNode],
			http: ports[i*perNode+1],
		}
		n.dataDir = filepath.Join(h.runDir, fmt.Sprintf("data-%s-%d", n.id, len(h.nodes)+i))
		n.logPath = n.dataDir + ".log"
		if count > 1 {
			n.cluster = ports[i*perNode+2]
			peers = append(peers, n.id+"="+n.cluster)
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.args = []string{
			"-listen", n.wire, "-http", n.http, "-data-dir", n.dataDir,
			"-snapshot-interval", "0",
			// High enough that nothing is refused: a 429 is a failed
			// operation, and quotas are not what the benchmark measures.
			"-query-rate", "1000000", "-query-burst", "1000000",
		}
		if count > 1 {
			n.args = append(n.args, "-node-id", n.id, "-peers", strings.Join(peers, ","), "-rf", strconv.Itoa(rf))
		}
	}
	h.mu.Lock()
	h.nodes = append(h.nodes, nodes...)
	h.mu.Unlock()
	return nodes, nil
}

// start launches the node with the given fsync policy and waits until
// /stats answers.
func (h *harness) start(n *node, fsync string) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(h.odadBin, append([]string{"-fsync", fsync}, n.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Its own process group, so one kill reaches anything it spawns and a
	// terminal's SIGINT reaches only the harness, which then cleans up. If
	// the harness dies without cleaning up (a panic on another goroutine,
	// SIGKILL), the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	n.cmd, n.logf, n.exited = cmd, logf, make(chan struct{})
	go func(c *exec.Cmd, done chan struct{}) {
		_ = c.Wait()
		close(done)
	}(cmd, n.exited)
	h.mu.Lock()
	h.writePids()
	h.mu.Unlock()
	return n.waitReady(30 * time.Second)
}

// waitReady polls /stats until it answers 200 or the process dies.
func (n *node) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-n.exited:
			return fmt.Errorf("odad %s exited during start-up\n%s", n.id, n.logTail())
		default:
		}
		resp, err := http.Get("http://" + n.http + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("odad %s not ready after %v\n%s", n.id, timeout, n.logTail())
}

// signalWait sends sig to the node's process group and waits for exit.
func (n *node) signalWait(sig syscall.Signal, timeout time.Duration) error {
	if n.cmd == nil {
		return nil
	}
	_ = syscall.Kill(-n.cmd.Process.Pid, sig)
	select {
	case <-n.exited:
	case <-time.After(timeout):
		_ = syscall.Kill(-n.cmd.Process.Pid, syscall.SIGKILL)
		<-n.exited
		return fmt.Errorf("odad %s ignored %v for %v\n%s", n.id, sig, timeout, n.logTail())
	}
	n.logf.Close()
	n.cmd = nil
	return nil
}

// interrupt is a clean shutdown: odad drains ingest and checkpoints.
func (n *node) interrupt() error { return n.signalWait(syscall.SIGINT, 60*time.Second) }

// kill is a crash: no drain, no checkpoint.
func (n *node) kill() { _ = n.signalWait(syscall.SIGKILL, 10*time.Second) }

// wipe removes the node's data so a repeated set-up starts from nothing.
func (n *node) wipe() error {
	_ = os.Remove(n.logPath)
	return os.RemoveAll(n.dataDir)
}

func (n *node) logTail() string {
	data, err := os.ReadFile(n.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return fmt.Sprintf("--- tail of %s ---\n%s", n.logPath, bytes.TrimSpace(data))
}

// cpuSeconds is utime+stime of the process from /proc/<pid>/stat.
func (n *node) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after ")".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("malformed /proc stat")
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	const clockTicksPerSecond = 100 // USER_HZ on every Linux port Go supports
	return (ut + st) / clockTicksPerSecond, nil
}

// rssPeakMB is VmHWM from /proc/<pid>/status.
func (n *node) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// diskBytes sums the regular files under the node's data dir.
func (n *node) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(n.dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

// stats fetches and decodes /stats.
func (n *node) stats() (map[string]any, error) {
	resp, err := http.Get("http://" + n.http + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: %s", resp.Status)
	}
	var out map[string]any
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
