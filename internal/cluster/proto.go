package cluster

import (
	"errors"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/metric"
	"repro/internal/timeseries"
)

// Cluster RPC rides the wire package's frame layer (magic/version/CRC) with
// its own frame types, so a cluster listener can also accept plain agent
// dictionary traffic on the same port. Requests and responses are single
// frames; payloads are binenc primitives, like the batch codec's.
const (
	// FrameQueryReq asks a peer to execute a query op against its local
	// store (or one of its replica stores) and return per-key results.
	FrameQueryReq uint8 = 16
	// FrameQueryResp carries the per-key results or an error.
	FrameQueryResp uint8 = 17
	// FrameReplPull asks a leader for WAL records (or a snapshot) from a
	// follower's replication cursor.
	FrameReplPull uint8 = 18
	// FrameReplResp carries the shipped records / snapshot.
	FrameReplResp uint8 = 19
	// FrameTopoReq asks a peer for its current topology (epoch, members,
	// ring geometry) — the anti-entropy fetch after an epoch mismatch, and
	// the first step of a join.
	FrameTopoReq uint8 = 20
	// FrameTopoResp carries an encoded Topology.
	FrameTopoResp uint8 = 21
	// FrameTopoPush offers a peer a (presumably newer) topology; the peer
	// adopts it if the epoch is newer than its own.
	FrameTopoPush uint8 = 22
	// FrameTopoAck answers a push with the peer's resulting epoch.
	FrameTopoAck uint8 = 23
	// 24–27 are retired and stay reserved: they carried read repair (a
	// coordinator had a stale follower install a fresher follower's replica
	// dump). A peer that still sends one is refused like any unknown frame.
)

// queryOp selects what a peer computes per key. The single-series ops are
// answered whole on the owner (fn runs there); the scatter ops ship
// fixed-size partial aggregates the coordinator merges across owners, or
// the IDs of the series a member holds.
type queryOp uint8

const (
	opReducePartial queryOp = 1 // Partial per key (ReduceMany's scatter)
	// 2 and 3 are retired and stay reserved: 2 shipped bucketed partials for
	// a multi-series range scatter no caller used, and 3 shipped a series'
	// raw values as bare floats.
	opReduceFull queryOp = 4 // final (value, count) per key, fn on owner
	opAggFull    queryOp = 5 // final []AggPoint per key, fn on owner
	opSelect     queryOp = 6 // no keys; one result per series matching Match
	opSamples    queryOp = 7 // raw samples per key, as a sample column
)

// checkOp refuses an op code this version does not serve.
func checkOp(op queryOp) error {
	switch op {
	case opReducePartial, opReduceFull, opAggFull, opSelect, opSamples:
		return nil
	}
	return fmt.Errorf("cluster: unknown or retired query op %d", op)
}

type queryRequest struct {
	Op queryOp
	// Epoch is the sender's topology epoch. A peer on a different epoch
	// rejects the request with EpochMismatch instead of answering against a
	// divergent placement; 0 skips the check (epoch-agnostic bootstrap
	// traffic from a node not yet in the membership).
	Epoch uint64
	// ReplicaOf selects the peer's replica store of that node instead of
	// its own primary store — the degraded-read path when an owner is down.
	ReplicaOf string
	Fn        timeseries.AggFunc // opReduceFull / opAggFull only
	From, To  int64
	Step      int64 // bucketed ops only
	Keys      []string
	Match     metric.ID // opSelect only: name ("" = any) and labels to match
}

// keyResult is one key's answer; which fields are set depends on the op.
type keyResult struct {
	Found bool
	// TierStep is the rollup tier of the plan the answering store executed
	// (0: a raw scan), so a coordinator reports the plan that ran, not one
	// of its own.
	TierStep int64
	Partial  timeseries.Partial
	Value    float64
	Count    int64
	Points   []timeseries.AggPoint
	ID       metric.ID // opSelect
	Times    []int64   // opSamples: the sample column, in time order
	Vals     []float64
}

type queryResponse struct {
	Err string // non-empty: the whole request failed on the peer
	// EpochMismatch: the peer is on a different topology epoch (reported in
	// Epoch) and refused to answer; the caller resolves via topology
	// fetch/push and retries.
	EpochMismatch bool
	Epoch         uint64
	// Promoted (replica queries only): the serving follower has promoted
	// its replica of ReplicaOf to read-primary after sustained leader
	// death, so the answer is authoritative, not partial.
	Promoted bool
	// ReplSeq/ReplOff (replica queries only): the follower's replication
	// cursor, letting a coordinator answer from the freshest follower.
	ReplSeq uint64
	ReplOff int64
	Results []keyResult
}

type replPullRequest struct {
	Epoch        uint64 // sender's topology epoch; 0 = epoch-agnostic (join)
	WantSnapshot bool
	FromSeq      uint64
	FromOff      int64
	MaxBytes     int64
}

type replPullResponse struct {
	Err           string
	EpochMismatch bool
	Epoch         uint64
	SegmentGone   bool // cursor fell behind a checkpoint: re-bootstrap
	Snapshot      []byte
	NextSeq       uint64
	NextOff       int64
	LagBytes      int64
	Records       [][]byte
}

// --- Partial ---

func appendPartial(b []byte, pa *timeseries.Partial) []byte {
	b = binenc.AppendVarint(b, pa.Count)
	b = binenc.AppendFloat(b, pa.Sum)
	b = binenc.AppendFloat(b, pa.Min)
	b = binenc.AppendFloat(b, pa.Max)
	b = binenc.AppendVarint(b, pa.FirstT)
	b = binenc.AppendFloat(b, pa.FirstV)
	b = binenc.AppendVarint(b, pa.LastT)
	return binenc.AppendFloat(b, pa.LastV)
}

func readPartial(p *binenc.Reader) timeseries.Partial {
	return timeseries.Partial{
		Count:  p.Varint(),
		Sum:    p.Float(),
		Min:    p.Float(),
		Max:    p.Float(),
		FirstT: p.Varint(),
		FirstV: p.Float(),
		LastT:  p.Varint(),
		LastV:  p.Float(),
	}
}

// --- query request ---

func encodeQueryRequest(q *queryRequest) []byte {
	b := make([]byte, 0, 64)
	b = append(b, byte(q.Op))
	b = binenc.AppendUvarint(b, q.Epoch)
	b = binenc.AppendString(b, q.ReplicaOf)
	b = binenc.AppendString(b, string(q.Fn))
	b = binenc.AppendVarint(b, q.From)
	b = binenc.AppendVarint(b, q.To)
	b = binenc.AppendVarint(b, q.Step)
	b = binenc.AppendUvarint(b, uint64(len(q.Keys)))
	for _, k := range q.Keys {
		b = binenc.AppendString(b, k)
	}
	if q.Op == opSelect {
		b = binenc.AppendID(b, q.Match)
	}
	return b
}

func decodeQueryRequest(payload []byte) (*queryRequest, error) {
	p := binenc.NewReader(payload)
	q := &queryRequest{
		Op:        queryOp(p.Byte()),
		Epoch:     p.Uvarint(),
		ReplicaOf: p.Str(),
		Fn:        timeseries.AggFunc(p.Str()),
		From:      p.Varint(),
		To:        p.Varint(),
		Step:      p.Varint(),
	}
	q.Keys = make([]string, p.Count(1))
	for i := range q.Keys {
		q.Keys[i] = p.Str()
	}
	if q.Op == opSelect {
		q.Match = p.ID()
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return q, checkOp(q.Op)
}

// --- query response ---

func encodeQueryResponse(op queryOp, resp *queryResponse) []byte {
	b := make([]byte, 0, 64)
	b = binenc.AppendString(b, resp.Err)
	if resp.Err != "" {
		return b
	}
	b = binenc.AppendBool(b, resp.EpochMismatch)
	b = binenc.AppendUvarint(b, resp.Epoch)
	if resp.EpochMismatch {
		return b
	}
	b = binenc.AppendBool(b, resp.Promoted)
	b = binenc.AppendUvarint(b, resp.ReplSeq)
	b = binenc.AppendVarint(b, resp.ReplOff)
	b = binenc.AppendUvarint(b, uint64(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		b = binenc.AppendBool(b, r.Found)
		if !r.Found {
			continue
		}
		b = binenc.AppendVarint(b, r.TierStep)
		switch op {
		case opReducePartial:
			b = appendPartial(b, &r.Partial)
		case opReduceFull:
			b = binenc.AppendFloat(b, r.Value)
			b = binenc.AppendVarint(b, r.Count)
		case opAggFull:
			b = binenc.AppendUvarint(b, uint64(len(r.Points)))
			for j := range r.Points {
				b = binenc.AppendVarint(b, r.Points[j].Start)
				b = binenc.AppendFloat(b, r.Points[j].Value)
			}
		case opSelect:
			b = binenc.AppendID(b, r.ID)
		case opSamples:
			b = appendSamples(b, r.Times, r.Vals)
		}
	}
	return b
}

func decodeQueryResponse(op queryOp, payload []byte) (*queryResponse, error) {
	if err := checkOp(op); err != nil {
		return nil, err
	}
	p := binenc.NewReader(payload)
	resp := &queryResponse{Err: p.Str()}
	if resp.Err != "" || p.Err() != nil {
		return resp, p.Err()
	}
	resp.EpochMismatch = p.Bool()
	resp.Epoch = p.Uvarint()
	if resp.EpochMismatch || p.Err() != nil {
		return resp, p.Err()
	}
	resp.Promoted = p.Bool()
	resp.ReplSeq = p.Uvarint()
	resp.ReplOff = p.Varint()
	resp.Results = make([]keyResult, p.Count(1))
	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Found = p.Bool(); !r.Found {
			continue
		}
		r.TierStep = p.Varint()
		switch op {
		case opReducePartial:
			r.Partial = readPartial(&p)
		case opReduceFull:
			r.Value = p.Float()
			r.Count = p.Varint()
		case opAggFull:
			r.Points = make([]timeseries.AggPoint, p.Count(9))
			for j := range r.Points {
				r.Points[j] = timeseries.AggPoint{Start: p.Varint(), Value: p.Float()}
			}
		case opSelect:
			r.ID = p.ID()
		case opSamples:
			var err error
			if r.Times, r.Vals, err = readSamples(&p); err != nil {
				return nil, err
			}
		}
	}
	return resp, p.Err()
}

// appendSamples appends a sample column: the count, each time as a zig-zag
// delta from the one before (the first from 0), a byte saying whether the
// values came out decimal, and the values as one binenc value column.
func appendSamples(b []byte, times []int64, vals []float64) []byte {
	b = binenc.AppendUvarint(b, uint64(len(times)))
	var prev int64
	for _, t := range times {
		b = binenc.AppendVarint(b, t-prev)
		prev = t
	}
	at := len(b)
	b = append(b, 0)
	b, decimal := binenc.AppendValues(b, vals)
	if decimal {
		b[at] = 1
	}
	return b
}

// readSamples reads a column appendSamples wrote.
func readSamples(p *binenc.Reader) ([]int64, []float64, error) {
	// Every sample costs at least a time byte and a value byte.
	times := make([]int64, p.Count(2))
	var t int64
	for i := range times {
		t += p.Varint()
		times[i] = t
	}
	coding := p.Byte()
	if coding > 1 {
		return nil, nil, errors.New("cluster: sample column coded neither raw nor decimal")
	}
	col := p.ValueCol(coding == 1)
	vals := make([]float64, len(times))
	for i := range vals {
		vals[i] = p.Value(col)
	}
	return times, vals, p.Err()
}

// --- replication pull ---

func encodeReplPullRequest(q *replPullRequest) []byte {
	b := make([]byte, 0, 32)
	b = binenc.AppendUvarint(b, q.Epoch)
	b = binenc.AppendBool(b, q.WantSnapshot)
	b = binenc.AppendUvarint(b, q.FromSeq)
	b = binenc.AppendVarint(b, q.FromOff)
	return binenc.AppendVarint(b, q.MaxBytes)
}

func decodeReplPullRequest(payload []byte) (*replPullRequest, error) {
	p := binenc.NewReader(payload)
	q := &replPullRequest{
		Epoch:        p.Uvarint(),
		WantSnapshot: p.Bool(),
		FromSeq:      p.Uvarint(),
		FromOff:      p.Varint(),
		MaxBytes:     p.Varint(),
	}
	return q, p.Err()
}

func encodeReplPullResponse(r *replPullResponse) []byte {
	b := make([]byte, 0, 64)
	b = binenc.AppendString(b, r.Err)
	if r.Err != "" {
		return b
	}
	b = binenc.AppendBool(b, r.EpochMismatch)
	b = binenc.AppendUvarint(b, r.Epoch)
	if r.EpochMismatch {
		return b
	}
	b = binenc.AppendBool(b, r.SegmentGone)
	b = binenc.AppendBytes(b, r.Snapshot)
	b = binenc.AppendUvarint(b, r.NextSeq)
	b = binenc.AppendVarint(b, r.NextOff)
	b = binenc.AppendVarint(b, r.LagBytes)
	b = binenc.AppendUvarint(b, uint64(len(r.Records)))
	for _, rec := range r.Records {
		b = binenc.AppendBytes(b, rec)
	}
	return b
}

func decodeReplPullResponse(payload []byte) (*replPullResponse, error) {
	p := binenc.NewReader(payload)
	r := &replPullResponse{Err: p.Str()}
	if r.Err != "" || p.Err() != nil {
		return r, p.Err()
	}
	r.EpochMismatch = p.Bool()
	r.Epoch = p.Uvarint()
	if r.EpochMismatch || p.Err() != nil {
		return r, p.Err()
	}
	r.SegmentGone = p.Bool()
	r.Snapshot = p.Bytes()
	r.NextSeq = p.Uvarint()
	r.NextOff = p.Varint()
	r.LagBytes = p.Varint()
	r.Records = make([][]byte, p.Count(1))
	for i := range r.Records {
		r.Records[i] = p.Bytes()
	}
	return r, p.Err()
}
