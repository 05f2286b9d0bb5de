package persist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// readFromWhole is ReadFrom as it stood when every pull read each segment
// whole with os.ReadFile and walked it with nextRecord. It is kept here, and
// only here, as the reference the windowed ReadFrom must match record for
// record, cursor for cursor.
func readFromWhole(dir string, seq uint64, off int64, maxBytes int64, fn func(payload []byte) error) (nextSeq uint64, nextOff int64, records int, err error) {
	segs, err := listSeqFiles(dir, "wal-", ".seg")
	if err != nil {
		return seq, off, 0, err
	}
	if len(segs) == 0 {
		return seq, off, 0, nil
	}
	if seq == 0 {
		seq = segs[0].seq
		off = 0
	}
	if seq < segs[0].seq {
		return seq, off, 0, ErrSegmentGone
	}
	idx := -1
	for i, sg := range segs {
		if sg.seq == seq {
			idx = i
			break
		}
	}
	if idx == -1 {
		if seq > segs[len(segs)-1].seq {
			return seq, off, 0, nil
		}
		return seq, off, 0, ErrSegmentGone
	}
	if off < int64(len(segMagic)) {
		off = int64(len(segMagic))
	}
	var sent int64
	for idx < len(segs) && sent < maxBytes {
		data, err := os.ReadFile(segs[idx].path)
		if err != nil {
			return seq, off, records, err
		}
		if !knownMagic(data) {
			return seq, off, records, nil
		}
		n := int64(len(data))
		for sent < maxBytes {
			payload, next, ok := nextRecord(data, off)
			if !ok {
				break
			}
			if err := fn(payload); err != nil {
				return seq, off, records, err
			}
			off = next
			sent += int64(len(payload))
			records++
		}
		if off+recordHeaderLen > n || sent >= maxBytes {
			if sent < maxBytes && idx+1 < len(segs) && off >= n {
				idx++
				seq = segs[idx].seq
				off = int64(len(segMagic))
				continue
			}
			break
		}
		break
	}
	return seq, off, records, nil
}

// pull is one ReadFrom call's outcome. The payloads are kept as delivered,
// not copied, so comparing them after the call also checks that a payload
// outlives the callback it was handed to.
type pull struct {
	payloads [][]byte
	seq      uint64
	off      int64
	records  int
	err      error
}

type readFromFunc func(seq uint64, off int64, maxBytes int64, fn func([]byte) error) (uint64, int64, int, error)

func doPull(read readFromFunc, seq uint64, off, maxBytes int64) pull {
	var p pull
	p.seq, p.off, p.records, p.err = read(seq, off, maxBytes, func(payload []byte) error {
		p.payloads = append(p.payloads, payload)
		return nil
	})
	return p
}

// samePull reports how got differs from want, or "" when it does not.
func samePull(got, want pull) string {
	if got.seq != want.seq || got.off != want.off || got.records != want.records {
		return fmt.Sprintf("cursor (%d, %d) after %d records, want (%d, %d) after %d", got.seq, got.off, got.records, want.seq, want.off, want.records)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) || errors.Is(got.err, ErrSegmentGone) != errors.Is(want.err, ErrSegmentGone) {
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	}
	if len(got.payloads) != len(want.payloads) {
		return fmt.Sprintf("%d payloads, want %d", len(got.payloads), len(want.payloads))
	}
	for i := range got.payloads {
		if !bytes.Equal(got.payloads[i], want.payloads[i]) {
			return fmt.Sprintf("payload %d differs (%d bytes, want %d)", i, len(got.payloads[i]), len(want.payloads[i]))
		}
	}
	return ""
}

// checkPullParity pulls from (seq, off) with ReadFrom and with the
// whole-file reference, then keeps following the returned cursor while it
// delivers, and fails at the first pull where the two differ.
func checkPullParity(t testing.TB, dir string, seq uint64, off, maxBytes int64) {
	t.Helper()
	sr := NewSegmentReader(dir)
	whole := func(seq uint64, off int64, maxBytes int64, fn func([]byte) error) (uint64, int64, int, error) {
		return readFromWhole(dir, seq, off, maxBytes, fn)
	}
	for i := 0; i < 16; i++ {
		got, want := doPull(sr.ReadFrom, seq, off, maxBytes), doPull(whole, seq, off, maxBytes)
		if d := samePull(got, want); d != "" {
			t.Fatalf("pull %d from (%d, %d), maxBytes %d: %s", i, seq, off, maxBytes, d)
		}
		if want.err != nil || want.records == 0 {
			return
		}
		seq, off = want.seq, want.off
	}
}

// writeSegments lays out a WAL directory, one segment file per entry of
// segs, keyed by sequence number.
func writeSegments(t testing.TB, dir string, segs map[uint64][]byte) {
	t.Helper()
	for seq, data := range segs {
		if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// payload returns n bytes that differ from every other payload's.
func payload(n int, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i*7)
	}
	return p
}

// recordStarts returns the offsets at which seg's framed records start, and
// its length.
func recordStarts(seg []byte) []int64 {
	offs := []int64{0, int64(len(segMagic))}
	for off := int64(len(segMagic)); ; {
		_, next, ok := nextRecord(seg, off)
		if !ok {
			break
		}
		offs = append(offs, next)
		off = next
	}
	return append(offs, int64(len(seg)))
}

// TestSegmentReadFromParity holds ReadFrom to the whole-file reference on
// every layout a pull meets, from every record boundary (and a byte either
// side of it), at budgets from nothing to unbounded.
func TestSegmentReadFromParity(t *testing.T) {
	r := func(n int, tag byte) []byte { return payload(n, tag) }
	torn := frameSegment(r(100, 1), r(200, 2), r(300, 3))
	torn = torn[:len(torn)-50]
	badCRC := frameSegment(r(100, 1), r(200, 2), r(300, 3))
	badCRC[len(segMagic)+recordHeaderLen+100+recordHeaderLen+5] ^= 0xff
	overMax := append(frameSegment(r(40, 1)), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3)
	v1 := frameSegment(r(64, 1), r(64, 2))
	copy(v1, segMagicV1)
	foreign := frameSegment(r(64, 1), r(64, 2))
	copy(foreign, "NOTAWAL\n")
	five := [][]byte{r(1000, 1), r(1000, 2), r(1000, 3), r(1000, 4), r(1000, 5)}
	var small [][]byte
	for i := 0; i < 300; i++ {
		small = append(small, r(1+i%13, byte(i)))
	}

	cases := []struct {
		name string
		segs map[uint64][]byte // segment sequence number -> file contents
	}{
		{"torn tail mid-record", map[uint64][]byte{1: torn}},
		{"torn tail in a header", map[uint64][]byte{1: append(frameSegment(r(100, 1)), 0, 0, 1)}},
		{"bad checksum mid-segment", map[uint64][]byte{1: badCRC, 2: frameSegment(r(10, 9))}},
		{"length prefix over MaxRecord", map[uint64][]byte{1: overMax}},
		{"record larger than maxBytes", map[uint64][]byte{1: frameSegment(r(5000, 1), r(10, 2), r(3000, 3))}},
		{"records straddle the read window", map[uint64][]byte{1: frameSegment(five...)}},
		{"small records past the window", map[uint64][]byte{1: frameSegment(small...)}},
		{"rotation inside one pull", map[uint64][]byte{3: frameSegment(r(300, 1), r(300, 2)), 4: frameSegment(r(300, 3), r(300, 4)), 5: frameSegment(r(300, 5))}},
		{"rotation past a torn segment", map[uint64][]byte{1: torn, 2: frameSegment(r(300, 4))}},
		{"header-only segments", map[uint64][]byte{1: frameSegment(), 2: frameSegment(r(300, 1)), 3: frameSegment()}},
		{"header not on disk yet", map[uint64][]byte{1: frameSegment(r(300, 1)), 2: []byte("ODA")}},
		{"empty live segment file", map[uint64][]byte{1: frameSegment(r(300, 1)), 2: {}}},
		{"foreign magic", map[uint64][]byte{1: frameSegment(r(300, 1)), 2: foreign}},
		{"v1 segment", map[uint64][]byte{1: v1, 2: frameSegment(r(64, 3))}},
		{"gap in the sequence", map[uint64][]byte{1: frameSegment(r(30, 1)), 3: frameSegment(r(30, 2))}},
	}
	budgets := []int64{-1, 0, 1, 7, 8, 9, 100, 999, 1000, 1001, 1008, 2500, 4096, 1 << 20, math.MaxInt64}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeSegments(t, dir, tc.segs)
			var last uint64
			for seq := range tc.segs {
				last = max(last, seq)
			}
			for _, maxBytes := range budgets {
				// Every sequence number from "oldest" (0) to two past the
				// live segment: present ones from a spread of record
				// boundaries, and a byte either side of each; absent ones
				// are gone or not written yet.
				for seq := uint64(0); seq <= last+2; seq++ {
					seg, ok := tc.segs[seq]
					if !ok {
						checkPullParity(t, dir, seq, 0, maxBytes)
						continue
					}
					starts := recordStarts(seg)
					if len(starts) > 8 {
						starts = append(starts[:4], starts[len(starts)-4:]...)
					}
					for _, at := range append(starts, 1<<40) {
						for _, off := range []int64{at - 1, at, at + 1} {
							checkPullParity(t, dir, seq, off, maxBytes)
						}
					}
				}
			}
		})
	}
}

// TestSegmentReadFromGrowingSegment: a live segment that grows between two
// pulls — by whole records, by half a record and then its rest — is read the
// same way by both, and a cursor parked at the writing edge stays parked
// until the next record lands.
func TestSegmentReadFromGrowingSegment(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(1))
	seg := frameSegment(payload(500, 1), payload(700, 2))
	writeSegments(t, dir, map[uint64][]byte{1: seg})
	grow := func(b []byte) {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	next := frameSegment(payload(900, 3), payload(40, 4))[len(segMagic):]
	steps := [][]byte{nil, next[:5], next[5:600], next[600:], frameSegment(payload(3000, 5))[len(segMagic):]}
	sr := NewSegmentReader(dir)
	var seq uint64
	var off int64
	for i, b := range steps {
		grow(b)
		for _, maxBytes := range []int64{1, 600, 1 << 20} {
			checkPullParity(t, dir, seq, off, maxBytes)
		}
		p := doPull(sr.ReadFrom, seq, off, 1<<20)
		if p.err != nil {
			t.Fatal(p.err)
		}
		grown := append(append([]byte(nil), seg...), bytes.Join(steps[:i+1], nil)...)
		starts := recordStarts(grown)
		if edge := starts[len(starts)-2]; p.off != edge {
			t.Fatalf("step %d: cursor at %d, want the last record boundary %d", i, p.off, edge)
		}
		if again := doPull(sr.ReadFrom, p.seq, p.off, 1<<20); again.records != 0 || again.seq != p.seq || again.off != p.off {
			t.Fatalf("step %d: cursor parked at the writing edge moved: %+v", i, again)
		}
		seq, off = p.seq, p.off
	}
}

// TestSegmentReadFromStopsOnCallbackError: an error from fn ends the pull
// with the cursor on the record it refused, in both readers.
func TestSegmentReadFromStopsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	writeSegments(t, dir, map[uint64][]byte{1: frameSegment(payload(10, 1), payload(20, 2), payload(30, 3))})
	stop := errors.New("stop")
	refuseThird := func() func([]byte) error {
		n := 0
		return func([]byte) error {
			if n++; n == 3 {
				return stop
			}
			return nil
		}
	}
	gs, goff, gn, gerr := NewSegmentReader(dir).ReadFrom(0, 0, 1<<20, refuseThird())
	ws, woff, wn, werr := readFromWhole(dir, 0, 0, 1<<20, refuseThird())
	if gs != ws || goff != woff || gn != wn || gerr != stop || werr != stop {
		t.Fatalf("got (%d, %d, %d, %v), want (%d, %d, %d, %v)", gs, goff, gn, gerr, ws, woff, wn, werr)
	}
}

// readFromFuzzSeeds are FuzzSegmentReadFrom's seeds, committed under
// testdata/fuzz/FuzzSegmentReadFrom by TestGenCorpus: two segments, a
// segment sequence number, an offset and a budget.
func readFromFuzzSeeds() map[string]readFromSeed {
	r := func(n int, tag byte) []byte { return payload(n, tag) }
	torn := frameSegment(r(100, 1), r(200, 2))
	return map[string]readFromSeed{
		"seed-torn-tail":        {torn[:len(torn)-30], frameSegment(r(10, 3)), 1, 0, 1 << 20},
		"seed-over-budget":      {frameSegment(r(5000, 1), r(10, 2)), nil, 0, 0, 100},
		"seed-straddle":         {frameSegment(r(1000, 1), r(1000, 2), r(1000, 3)), nil, 1, 8, 1500},
		"seed-rotation":         {frameSegment(r(300, 1)), frameSegment(r(300, 2), r(300, 3)), 1, 8, 1000},
		"seed-header-only":      {frameSegment(), frameSegment(r(64, 1)), 0, 0, 1 << 20},
		"seed-foreign-magic":    {frameSegment(r(64, 1)), append([]byte("NOTAWAL\n"), frameSegment(r(64, 2))[len(segMagic):]...), 1, 0, 1 << 20},
		"seed-writing-edge":     {frameSegment(r(64, 1)), nil, 1, int64(len(frameSegment(r(64, 1)))), 1 << 20},
		"seed-header-not-there": {frameSegment(r(64, 1)), []byte("ODAW"), 1, 8, 1 << 20},
	}
}

type readFromSeed struct {
	seg1, seg2    []byte
	seq           uint64
	off, maxBytes int64
}

// FuzzSegmentReadFrom: for any two segments (the second written only when
// non-empty), any starting segment, offset and budget, ReadFrom delivers the
// same payloads, counts and cursors as the whole-file reference, pull after
// pull. The offset is folded into the segment and a little past it: the
// reference itself cannot take one near the int64 limit.
func FuzzSegmentReadFrom(f *testing.F) {
	for _, s := range readFromFuzzSeeds() {
		f.Add(s.seg1, s.seg2, s.seq, s.off, s.maxBytes)
	}
	f.Fuzz(func(t *testing.T, seg1, seg2 []byte, seq uint64, off, maxBytes int64) {
		dir := t.TempDir()
		segs := map[uint64][]byte{1: seg1}
		if len(seg2) > 0 {
			segs[2] = seg2
		}
		writeSegments(t, dir, segs)
		span := int64(len(seg1)+len(seg2)) + 32
		if off %= span; off < 0 {
			off += span
		}
		if maxBytes != math.MaxInt64 {
			maxBytes %= span
		}
		checkPullParity(t, dir, seq%4, off, maxBytes)
	})
}

// BenchmarkSegmentReadFrom drains an 8 MiB segment of scrape-shaped append
// records in 1 MiB pulls, the replica pump's budget; each op is one pull
// that delivers records. B/op is what a pull allocates: about its budget
// when it reads only what it ships, the whole segment when it reads the
// file. make bench-allocs gates it at 1.25 × the budget.
func BenchmarkSegmentReadFrom(b *testing.B) {
	const pullBudget = 1 << 20
	rng := rand.New(rand.NewSource(1))
	var payloads [][]byte
	size := len(segMagic)
	for round := int64(0); size < DefaultSegmentSize; round++ {
		n := []int{32, 128, 925}[round%3]
		samples := make([]refSample, n)
		for i := range samples {
			samples[i] = refSample{ref: uint64(i + 1), t: round * 1000, v: float64(rng.Intn(100000)) / 10}
		}
		p := appendColsPayload(samples)
		if size+recordHeaderLen+len(p) > DefaultSegmentSize {
			break
		}
		payloads = append(payloads, p)
		size += recordHeaderLen + len(p)
	}
	dir := b.TempDir()
	writeSegments(b, dir, map[uint64][]byte{1: frameSegment(payloads...)})
	sr := NewSegmentReader(dir)
	none := func([]byte) error { return nil }
	var seq uint64
	var off int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nseq, noff, n, err := sr.ReadFrom(seq, off, pullBudget, none)
		if err == nil && n == 0 {
			nseq, noff, n, err = sr.ReadFrom(0, 0, pullBudget, none)
		}
		if err != nil || n == 0 {
			b.Fatalf("pull from (%d, %d): %d records, %v", seq, off, n, err)
		}
		seq, off = nseq, noff
	}
}
