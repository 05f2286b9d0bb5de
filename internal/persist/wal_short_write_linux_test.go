//go:build linux

package persist

import (
	"os"
	"os/signal"
	"syscall"
	"testing"

	"repro/internal/metric"
)

// TestFailedWALWriteKeepsLaterAppends: a WAL write that fails part-way must
// not leave its fragment in the segment. RLIMIT_FSIZE makes the second
// append's write stop 10 bytes into its record (SIGXFSZ ignored, so the
// write returns EFBIG instead of killing the process); the append fails.
// The third append, after the limit is lifted, is acknowledged — so after
// a crash it must be recovered, not cut off behind the fragment as a torn
// tail.
func TestFailedWALWriteKeepsLaterAppends(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	id := testID("power", "n01")
	if err := d.Append(id, metric.Gauge, metric.UnitWatt, 1000, 1); err != nil {
		t.Fatal(err)
	}
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one live segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	limited := syscall.Rlimit{Cur: uint64(fi.Size()) + 10, Max: old.Max}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	failed := d.Append(id, metric.Gauge, metric.UnitWatt, 2000, 2)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if failed == nil {
		t.Fatal("append past RLIMIT_FSIZE succeeded")
	}
	if err := d.Append(id, metric.Gauge, metric.UnitWatt, 3000, 3); err != nil {
		t.Fatalf("append after the limit was lifted: %v", err)
	}
	d.Crash()

	r, err := Open(dir, Options{ChunkSize: 8, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Crash()
	st := r.Stats()
	if st.TruncatedTails != 0 || st.LostSegments != 0 {
		t.Fatalf("recovery cut the log: %d torn tails (%d bytes), %d lost segments",
			st.TruncatedTails, st.TruncatedBytes, st.LostSegments)
	}
	if got := r.Store().NumSamples(); got != 2 {
		t.Fatalf("recovered %d samples, want 2 (the acknowledged first and third)", got)
	}
}
