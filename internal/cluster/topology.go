package cluster

import (
	"fmt"
	"sort"

	"repro/internal/binenc"
)

// Topology is the cluster membership as a first-class, epoch-versioned
// value: who the members are, where they listen, and the ring geometry they
// place keys with. A Topology is immutable once built — membership changes
// produce a NEW Topology with a strictly larger epoch (WithJoined /
// WithLeft), and every layer that holds per-peer state re-derives it when
// the router swaps the active topology pointer. That turns "the cluster
// changed shape" from a restart-the-world event into an ordinary value
// update: placement, hinted handoff, replication assignments and scatter
// planning all key off whichever Topology their operation started with,
// and cluster RPC frames carry the sender's epoch so a peer on a stale
// value gets an explicit rejection instead of silently misrouting.
//
// Epoch 0 is reserved as "epoch-agnostic": bootstrap pulls from a joining
// node predate its membership and skip the epoch check. The first real
// topology is epoch 1.
type Topology struct {
	// Epoch totally orders topologies: every join/leave increments it.
	Epoch uint64
	// Members is the full membership, sorted by ID.
	Members []Member
	// VNodes and RF are the ring geometry the whole cluster agrees on. RF
	// is the REQUESTED replication factor; the ring clamps it to the
	// member count, so a cluster started small grows into its RF as
	// members join.
	VNodes int
	RF     int

	ring *Ring
}

// Member names one cluster member: its stable node ID (the ring identity)
// and the address of its cluster listener.
type Member struct {
	ID   string
	Addr string
}

// NewTopology validates members (non-empty IDs, no duplicates), sorts them
// by ID and builds the placement ring. vnodes <= 0 uses DefaultVNodes; rf
// is clamped to [1, len(members)] by the ring but remembered as requested.
func NewTopology(epoch uint64, members []Member, vnodes, rf int) (*Topology, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: topology needs at least one member")
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	ids := make([]string, len(ms))
	for i, m := range ms {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member with empty node id")
		}
		if i > 0 && m.ID == ms[i-1].ID {
			return nil, fmt.Errorf("cluster: duplicate node id %q", m.ID)
		}
		ids[i] = m.ID
	}
	ring, err := NewRing(ids, vnodes, rf)
	if err != nil {
		return nil, err
	}
	if rf < 1 {
		rf = 1
	}
	return &Topology{
		Epoch:   epoch,
		Members: ms,
		VNodes:  ring.VNodes(),
		RF:      rf,
		ring:    ring,
	}, nil
}

// Ring returns the placement ring for this topology (read-only).
func (t *Topology) Ring() *Ring { return t.ring }

// Has reports whether id is a member.
func (t *Topology) Has(id string) bool {
	_, ok := t.Addr(id)
	return ok
}

// Addr returns the cluster listen address of member id.
func (t *Topology) Addr(id string) (string, bool) {
	i := sort.Search(len(t.Members), func(i int) bool { return t.Members[i].ID >= id })
	if i < len(t.Members) && t.Members[i].ID == id {
		return t.Members[i].Addr, true
	}
	return "", false
}

// MemberIDs returns the sorted member IDs.
func (t *Topology) MemberIDs() []string {
	ids := make([]string, len(t.Members))
	for i, m := range t.Members {
		ids[i] = m.ID
	}
	return ids
}

// WithJoined returns the successor topology (epoch+1) with m added.
func (t *Topology) WithJoined(m Member) (*Topology, error) {
	if t.Has(m.ID) {
		return nil, fmt.Errorf("cluster: node %q is already a member", m.ID)
	}
	return NewTopology(t.Epoch+1, append(append([]Member(nil), t.Members...), m), t.VNodes, t.RF)
}

// WithLeft returns the successor topology (epoch+1) with id removed.
func (t *Topology) WithLeft(id string) (*Topology, error) {
	if !t.Has(id) {
		return nil, fmt.Errorf("cluster: node %q is not a member", id)
	}
	if len(t.Members) == 1 {
		return nil, fmt.Errorf("cluster: cannot remove the last member %q", id)
	}
	ms := make([]Member, 0, len(t.Members)-1)
	for _, m := range t.Members {
		if m.ID != id {
			ms = append(ms, m)
		}
	}
	return NewTopology(t.Epoch+1, ms, t.VNodes, t.RF)
}

// --- wire encoding ---

// encodeTopology serializes a topology for FrameTopoResp / FrameTopoPush.
func encodeTopology(t *Topology) []byte {
	b := make([]byte, 0, 64)
	b = binenc.AppendUvarint(b, t.Epoch)
	b = binenc.AppendUvarint(b, uint64(t.VNodes))
	b = binenc.AppendUvarint(b, uint64(t.RF))
	b = binenc.AppendUvarint(b, uint64(len(t.Members)))
	for _, m := range t.Members {
		b = binenc.AppendString(b, m.ID)
		b = binenc.AppendString(b, m.Addr)
	}
	return b
}

// decodeTopology parses an encodeTopology payload and rebuilds the ring.
func decodeTopology(payload []byte) (*Topology, error) {
	p := binenc.NewReader(payload)
	epoch, vn, rf := p.Uvarint(), p.Uvarint(), p.Uvarint()
	members := make([]Member, p.Count(2)) // an ID and an address each
	for i := range members {
		members[i] = Member{ID: p.Str(), Addr: p.Str()}
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return NewTopology(epoch, members, int(vn), int(rf))
}
