package tsmodel

import "repro/internal/metric"

// Source is the randomness the generator draws on: a seeded *rand.Rand in
// the property tests, a Tape of fuzz bytes in the fuzz target.
type Source interface{ Intn(n int) int }

// Tape replays fuzz input as decisions: Intn(n) reads as many bytes as n-1
// needs, big-endian, modulo n. An exhausted tape answers 0.
type Tape []byte

// Intn returns a decision in [0, n).
func (t *Tape) Intn(n int) int {
	v := 0
	for x := n - 1; x > 0; x >>= 8 {
		v <<= 8
		if len(*t) > 0 {
			v |= int((*t)[0])
			*t = (*t)[1:]
		}
	}
	return v % n
}

// Kind names a generated operation.
type Kind uint8

const (
	Append     Kind = iota // one Store.Append per entry
	Batch                  // one AppendBatch
	Refs                   // Resolve each series named, then one AppendRefs
	Retain                 // Retain(Cutoff)
	RetainTier             // RetainTier(Step, Cutoff)
	Restore                // dump and restore; a durable store closes and reopens
	Crash                  // a durable store crashes and reopens; a plain one restores
)

func (k Kind) String() string {
	return [...]string{"append", "batch", "refs", "retain", "retain-tier", "restore", "crash"}[k]
}

// Entry is one generated sample.
type Entry struct {
	ID metric.ID
	T  int64
	V  float64
}

// Op is one generated operation.
type Op struct {
	Kind    Kind
	Entries []Entry // Append, Batch, Refs
	Step    int64   // RetainTier
	Cutoff  int64   // Retain, RetainTier
}

// Windows are one check's query windows: [From, To) for the raw reducers,
// [PlanFrom, PlanTo) bucketed at Step for the planned ones. PlanFrom is on
// the coarsest tier's grid at or past every Retain cutoff so far: tiers
// outlive the raw samples Retain drops, so a tier-served answer below that
// rightly counts samples the raw series no longer holds.
type Windows struct{ From, To, PlanFrom, PlanTo, Step int64 }

// Gen generates a store workload over three series. Timestamps mostly
// advance, sometimes repeat or go back (samples the store must refuse) and
// sometimes jump. On a store with tiers values are multiples of 1/8 below
// 64 in magnitude, so every sum of them is exact and a tier-served answer,
// which groups sums by window, is bit-comparable to the model's
// left-to-right one; without tiers every answer is a raw scan and values
// are tenths, whose sums round, so the summation order is checked too.
type Gen struct {
	ChunkSize int     // the store's
	Tiers     []int64 // the store's rollup steps, ascending; nil for none

	src    Source
	div    float64 // values are integers over div
	grid   int64   // the coarsest tier's step, 1 without tiers
	clock  [3]int64
	seen   [3][]int64 // every timestamp generated, per series
	lo, hi int64      // range of generated timestamps
	floor  int64      // PlanFrom's lower bound
}

var genIDs = [3]metric.ID{
	{Name: "node_power_watts", Labels: metric.NewLabels("node", "n00")},
	{Name: "node_power_watts", Labels: metric.NewLabels("node", "n01")},
	{Name: "facility_pue"},
}

// NewGen draws the store's shape from src and returns the generator.
func NewGen(src Source) *Gen {
	g := &Gen{src: src, div: 10, grid: 1, floor: -1 << 62}
	g.ChunkSize = 1 + src.Intn(24)
	g.Tiers = [][]int64{nil, {4000, 16000}, {60_000}}[src.Intn(3)]
	if n := len(g.Tiers); n > 0 {
		g.div, g.grid = 8, g.Tiers[n-1]
	}
	return g
}

// Next returns the next operation.
func (g *Gen) Next() Op {
	i := g.src.Intn(3) // the series a retention centres on
	switch k := g.src.Intn(16); {
	case k < 10:
		op := Op{Kind: Kind(k % 3), Entries: make([]Entry, 1+g.src.Intn(6))}
		for j := range op.Entries {
			op.Entries[j] = g.entry(g.src.Intn(3))
		}
		return op
	case k < 13:
		return Op{Kind: Retain, Cutoff: g.cutoff(i)}
	case k == 13:
		step := int64(4000)
		if len(g.Tiers) > 0 {
			step = g.Tiers[g.src.Intn(len(g.Tiers))]
		}
		return Op{Kind: RetainTier, Step: step, Cutoff: g.clock[i] - int64(g.src.Intn(40000))}
	}
	return Op{Kind: Restore + Kind(g.src.Intn(2))}
}

func (g *Gen) entry(i int) Entry {
	t := g.clock[i]
	switch g.src.Intn(8) {
	case 0: // at or before the newest: refused
		t -= int64(g.src.Intn(40000))
	case 1: // a gap
		t += int64(g.src.Intn(60000))
	default: // the cadence; 0 repeats the newest
		t += int64(g.src.Intn(3000))
	}
	g.clock[i] = max(g.clock[i], t)
	g.seen[i] = append(g.seen[i], t)
	g.lo, g.hi = min(g.lo, t), max(g.hi, t)
	return Entry{ID: genIDs[i], T: t, V: float64(g.src.Intn(1024)-512) / g.div}
}

func (g *Gen) cutoff(i int) int64 {
	c := g.clock[i] + 1 // just past one series
	switch g.src.Intn(4) {
	case 0: // exactly a generated timestamp, often some chunk's newest
		if len(g.seen[i]) > 0 {
			c = g.seen[i][g.src.Intn(len(g.seen[i]))]
		}
	case 1: // past every series: retains everything
		c = g.hi + 1 + int64(g.src.Intn(16000))
	case 2:
		c -= 1 + int64(g.src.Intn(20000))
	}
	g.floor = max(g.floor, alignUp(c, g.grid))
	return c
}

// Windows draws the query windows for one check.
func (g *Gen) Windows() Windows {
	lo, span := g.lo-2000, int(g.hi-g.lo)+4000
	w := Windows{From: lo + int64(g.src.Intn(span))}
	w.To = w.From + int64(g.src.Intn(span)) - int64(span/8) // sometimes inverted
	w.PlanFrom = alignUp(max(g.floor, lo+int64(g.src.Intn(span))), g.grid)
	w.PlanTo = w.PlanFrom + 1 + int64(g.src.Intn(span+int(g.grid)))
	w.Step = [...]int64{7000, 4000, 16000, 3 * max(g.grid, 16000)}[g.src.Intn(4)]
	return w
}

// alignUp rounds x up to a multiple of step.
func alignUp(x, step int64) int64 {
	if r := (x%step + step) % step; r != 0 {
		return x + step - r
	}
	return x
}
