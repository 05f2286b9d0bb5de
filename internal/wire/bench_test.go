package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

func BenchmarkFrameRoundTrip(b *testing.B) {
	var stream bytes.Buffer
	if err := newClientDict(&stream).send(sampleBatch()); err != nil {
		b.Fatal(err)
	}
	_, _, _ = ReadFrame(&stream) // the dictionary frame
	_, payload, err := ReadFrame(&stream)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteFrame(&buf, FrameRefBatch, payload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// refFrame encodes one steady-state agent round of records series: the
// dictionary frame that defines them and the ref frame after it, each with
// its header.
func refFrame(b *testing.B, records int) (defs, frame []byte) {
	var buf bytes.Buffer
	if err := newClientDict(&buf).send(fleetRound(1, records, synthT0)[0]); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	n := headerLen + int(binary.BigEndian.Uint32(stream[4:8]))
	return stream[:n], stream[n:]
}

// BenchmarkDecodeRefBatch runs the column decoder the server runs on one
// steady-state ref frame of each benchmark batch shape. `make bench-allocs`
// holds it to 0 allocs/op: the records and samples decode into the
// dictionary's reused scratch.
func BenchmarkDecodeRefBatch(b *testing.B) {
	for _, records := range []int{32, 925} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			defs, frame := refFrame(b, records)
			payload := frame[headerLen:]
			cd := NewConnDict()
			if _, err := cd.AddDefs(defs[headerLen:]); err != nil {
				b.Fatal(err)
			}
			if _, err := cd.decode(payload); err != nil { // grow the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cd.decode(payload); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/sample")
		})
	}
}

// loopReader yields its bytes over and over, one frame after another.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// countSink is the cheapest sink there is: a ref per Resolve, a count per
// append.
type countSink struct{ series, samples int }

func (s *countSink) Resolve(metric.ID, metric.Kind, metric.Unit) (timeseries.SeriesRef, error) {
	s.series++
	return timeseries.SeriesRef(s.series), nil
}

func (s *countSink) AppendRefs(entries []timeseries.RefEntry) (int, error) {
	s.samples += len(entries)
	return len(entries), nil
}

func (*countSink) RefEpoch() uint64 { return 0 }

// BenchmarkServeRefFrame is one agent frame through the server's frame
// loop, the dictionary already resolved: read the header and payload into
// the connection's buffer, check the checksum, decode the columns, address
// them by the resolved refs and hand them to the sink. `make bench-allocs`
// holds it to 0 allocs/op.
func BenchmarkServeRefFrame(b *testing.B) {
	for _, records := range []int{32, 925} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			defs, frame := refFrame(b, records)
			sink := &countSink{}
			s := &Server{sink: sink}
			c := &serverConn{r: bufio.NewReader(bytes.NewReader(append(defs, frame...)))}
			for i := 0; i < 2; i++ { // define, then resolve and grow the scratch
				if _, _, err := s.serveFrame(c); err != nil {
					b.Fatal(err)
				}
			}
			c.r = bufio.NewReader(&loopReader{b: frame})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.serveFrame(c); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if sink.series != records || sink.samples != (b.N+1)*records {
				b.Fatalf("sink resolved %d series and took %d samples", sink.series, sink.samples)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/sample")
		})
	}
}

// BenchmarkEncodeRefBatch is the send side of the same two frames, dictionary
// already negotiated: encode, frame and flush. Steady state allocates nothing.
func BenchmarkEncodeRefBatch(b *testing.B) {
	for _, records := range []int{32, 925} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			batch := fleetRound(1, records, synthT0)[0]
			d := newClientDict(io.Discard)
			if err := d.send(batch); err != nil { // define the series, grow the scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.send(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/sample")
		})
	}
}
