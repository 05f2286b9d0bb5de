// Package oda implements the paper's primary contribution: the conceptual
// framework for HPC Operational Data Analytics. It combines the 4-Pillar
// model of energy-efficient HPC data centers (Wilde et al.) with the four
// types of data analytics (descriptive, diagnostic, predictive,
// prescriptive) into a 4x4 grid, and makes the grid executable: concrete
// analytics register as Capabilities in grid cells, staged Pipelines chain
// them in the framework's maturity order, and the survey Catalog encodes
// Table I of the paper as analyzable data.
package oda

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metric"
	"repro/internal/timeseries"
)

// Pillar is one column of the framework: a domain of the data center
// (Fig. 1 of the paper).
type Pillar uint8

// The four pillars.
const (
	BuildingInfrastructure Pillar = iota
	SystemHardware
	SystemSoftware
	Applications
	NumPillars = 4
)

// String returns the pillar's display name.
func (p Pillar) String() string {
	switch p {
	case BuildingInfrastructure:
		return "building-infrastructure"
	case SystemHardware:
		return "system-hardware"
	case SystemSoftware:
		return "system-software"
	case Applications:
		return "applications"
	default:
		return fmt.Sprintf("pillar(%d)", uint8(p))
	}
}

// Pillars lists all pillars in column order.
func Pillars() []Pillar {
	return []Pillar{BuildingInfrastructure, SystemHardware, SystemSoftware, Applications}
}

// Type is one row of the framework: the kind of analytics (Fig. 2).
type Type uint8

// The four analytics types, in maturity/stage order: each answers a more
// ambitious operational question than the previous.
const (
	// Descriptive answers "what happened?".
	Descriptive Type = iota
	// Diagnostic answers "why did it happen?".
	Diagnostic
	// Predictive answers "what will happen?".
	Predictive
	// Prescriptive answers "what should we do about it?".
	Prescriptive
	NumTypes = 4
)

// String returns the type's display name.
func (t Type) String() string {
	switch t {
	case Descriptive:
		return "descriptive"
	case Diagnostic:
		return "diagnostic"
	case Predictive:
		return "predictive"
	case Prescriptive:
		return "prescriptive"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Question returns the operational question the type answers.
func (t Type) Question() string {
	switch t {
	case Descriptive:
		return "what happened?"
	case Diagnostic:
		return "why did it happen?"
	case Predictive:
		return "what will happen?"
	case Prescriptive:
		return "what should we do about it?"
	default:
		return "unknown"
	}
}

// Types lists all analytics types in stage order.
func Types() []Type { return []Type{Descriptive, Diagnostic, Predictive, Prescriptive} }

// Cell is one of the 16 positions of the framework grid.
type Cell struct {
	Pillar Pillar
	Type   Type
}

// String renders "type/pillar".
func (c Cell) String() string { return c.Type.String() + "/" + c.Pillar.String() }

// AllCells enumerates the 16 grid cells row-major (type, then pillar).
func AllCells() []Cell {
	out := make([]Cell, 0, NumPillars*NumTypes)
	for _, t := range Types() {
		for _, p := range Pillars() {
			out = append(out, Cell{Pillar: p, Type: t})
		}
	}
	return out
}

// Meta describes a capability for classification and reporting.
type Meta struct {
	// Name is a unique slug, e.g. "pue-kpi".
	Name string
	// Description is one line for the rendered grid.
	Description string
	// Cells are the framework positions the capability covers; multi-cell
	// capabilities model the paper's multi-type / multi-pillar systems.
	Cells []Cell
	// Refs cite the surveyed works this capability reproduces ("[4]").
	Refs []string
	// Reads declares the telemetry regions and live subsystems the
	// capability observes (see Resource). Declaring reads makes store and
	// scheduler contention explicit and lets the wave scheduler order the
	// capability after writers of the same resources.
	Reads []Resource
	// Writes declares the actuation surfaces the capability mutates.
	// Capabilities whose write sets are mutually disjoint from each
	// other's read+write sets run in the same parallel wave of RunAll;
	// conflicting capabilities execute in registration order.
	Writes []Resource
}

// Result is what a capability produces when run over a telemetry window.
type Result struct {
	// Summary is a human-readable one-liner for dashboards/reports.
	Summary string `json:"summary"`
	// Values carries named numeric outputs for downstream stages and
	// benchmark assertions.
	Values map[string]float64 `json:"values,omitempty"`
}

// Value returns a named output (0 when absent).
func (r Result) Value(name string) float64 { return r.Values[name] }

// Archive is everything a capability may read of the telemetry archive:
// series discovery plus three reads. A *timeseries.Store is one — a single
// node's whole archive. A cluster router's per-sweep view is another
// (cluster.Router.Archive): it scatters Select to every member and sends
// each read to the series' owner, so a sweep on any node reads the whole
// fleet and gets the answers one store holding it would give.
type Archive interface {
	// Select returns the IDs of the series whose name matches name (any
	// when empty) and whose labels match sel, in key order (metric.ID.Key).
	Select(name string, sel metric.Labels) []metric.ID
	// SeriesValues returns one series' values over [from, to): every raw
	// value in time order for step <= 0, per-bucket means for step > 0.
	SeriesValues(id metric.ID, from, to, step int64) ([]float64, error)
	// Each streams one series' samples over [from, to) to fn in time order,
	// stopping early when fn returns false.
	Each(id metric.ID, from, to int64, fn func(metric.Sample) bool) error
	// ReducePlanned reduces one series over [from, to) to fn's value and
	// the number of samples it covered, through the query planner.
	ReducePlanned(id metric.ID, from, to int64, fn timeseries.AggFunc) (float64, int, error)
}

var _ Archive = (*timeseries.Store)(nil)

// RunContext is the environment a capability executes in.
type RunContext struct {
	// Store is the telemetry archive to analyze, read only through Archive.
	Store Archive
	// From and To bound the analysis window (Unix millis, half-open).
	From, To int64
	// System optionally exposes the live system for prescriptive
	// capabilities (the *simulation.DataCenter in this repository);
	// capabilities type-assert what they need.
	System any
	// Upstream carries the previous stage's result inside a Pipeline.
	Upstream *Result
}

// SystemAs type-asserts the context's live-system handle, returning a
// descriptive error when the capability is run against the wrong system.
func SystemAs[T any](ctx *RunContext) (T, error) {
	var zero T
	if ctx.System == nil {
		return zero, fmt.Errorf("oda: capability needs a %T system handle, got none", zero)
	}
	s, ok := ctx.System.(T)
	if !ok {
		return zero, fmt.Errorf("oda: capability needs a %T system handle, got %T", zero, ctx.System)
	}
	return s, nil
}

// Capability is an executable ODA technique positioned in the grid.
type Capability interface {
	Meta() Meta
	Run(ctx *RunContext) (Result, error)
}

// CapabilityFunc adapts a function to Capability.
type CapabilityFunc struct {
	M  Meta
	Fn func(ctx *RunContext) (Result, error)
}

// Meta implements Capability.
func (c CapabilityFunc) Meta() Meta { return c.M }

// Run implements Capability.
func (c CapabilityFunc) Run(ctx *RunContext) (Result, error) { return c.Fn(ctx) }

// Grid is the 4x4 registry of capabilities: the executable form of the
// paper's Table I.
type Grid struct {
	byCell  map[Cell][]Capability
	byName  map[string]Capability
	order   []string
	workers int // RunAll pool size: 0 or 1 = serial (see SetWorkers)

	// schedMu guards the cached wave plan (invalidated by Register) and
	// the cumulative scheduler counters.
	schedMu    sync.Mutex
	schedPlan  *schedulePlan
	schedStats ScheduleStats
}

// NewGrid returns an empty grid.
func NewGrid() *Grid {
	return &Grid{
		byCell: make(map[Cell][]Capability),
		byName: make(map[string]Capability),
	}
}

// Register adds a capability; names must be unique, every cell valid, and
// every declared footprint resource part of the taxonomy.
func (g *Grid) Register(c Capability) error {
	m := c.Meta()
	if m.Name == "" {
		return errors.New("oda: capability needs a name")
	}
	if _, dup := g.byName[m.Name]; dup {
		return fmt.Errorf("oda: duplicate capability %q", m.Name)
	}
	if len(m.Cells) == 0 {
		return fmt.Errorf("oda: capability %q covers no cells", m.Name)
	}
	for _, cell := range m.Cells {
		if cell.Pillar >= NumPillars || cell.Type >= NumTypes {
			return fmt.Errorf("oda: capability %q has invalid cell %v", m.Name, cell)
		}
	}
	for _, r := range m.Reads {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("oda: capability %q read footprint: %w", m.Name, err)
		}
	}
	for _, r := range m.Writes {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("oda: capability %q write footprint: %w", m.Name, err)
		}
	}
	g.byName[m.Name] = c
	g.order = append(g.order, m.Name)
	for _, cell := range m.Cells {
		g.byCell[cell] = append(g.byCell[cell], c)
	}
	g.schedMu.Lock()
	g.schedPlan = nil // footprints changed: replan on next sweep
	g.schedMu.Unlock()
	return nil
}

// Get returns a capability by name.
func (g *Grid) Get(name string) (Capability, bool) {
	c, ok := g.byName[name]
	return c, ok
}

// At returns the capabilities registered in a cell.
func (g *Grid) At(cell Cell) []Capability { return g.byCell[cell] }

// Len returns the number of registered capabilities.
func (g *Grid) Len() int { return len(g.byName) }

// Names returns registration order.
func (g *Grid) Names() []string { return append([]string(nil), g.order...) }

// Coverage returns the capability count per cell for all 16 cells.
func (g *Grid) Coverage() map[Cell]int {
	out := make(map[Cell]int, NumPillars*NumTypes)
	for _, cell := range AllCells() {
		out[cell] = len(g.byCell[cell])
	}
	return out
}

// Gaps returns the cells with no registered capability, in grid order.
func (g *Grid) Gaps() []Cell {
	var out []Cell
	for _, cell := range AllCells() {
		if len(g.byCell[cell]) == 0 {
			out = append(out, cell)
		}
	}
	return out
}

// MultiPillar returns capabilities spanning more than one pillar, sorted by
// name — the systems §V-B of the paper singles out as rare and hard.
func (g *Grid) MultiPillar() []Capability {
	var out []Capability
	for _, name := range g.order {
		c := g.byName[name]
		pillars := map[Pillar]bool{}
		for _, cell := range c.Meta().Cells {
			pillars[cell.Pillar] = true
		}
		if len(pillars) > 1 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Meta().Name < out[b].Meta().Name })
	return out
}

// MultiType returns capabilities spanning more than one analytics type.
func (g *Grid) MultiType() []Capability {
	var out []Capability
	for _, name := range g.order {
		c := g.byName[name]
		types := map[Type]bool{}
		for _, cell := range c.Meta().Cells {
			types[cell.Type] = true
		}
		if len(types) > 1 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Meta().Name < out[b].Meta().Name })
	return out
}

// SetWorkers sizes the RunAll worker pool. The default, 0, and 1 run every
// capability serially in registration order. n > 1 is an explicit pool of n
// goroutines over the footprint waves, for grids whose capabilities block
// (an actuator call, a remote model): the built-in analytics are CPU-bound
// and one of them dominates the sweep, so a pool buys them nothing.
func (g *Grid) SetWorkers(n int) {
	g.workers = max(n, 0)
}

// RunAll executes every capability against the context, returning results
// by name. Errors are collected per capability rather than aborting the
// sweep, so one broken analytic cannot hide the rest — the report is the
// product. A capability that panics is recovered into an error wrapping
// ErrCapabilityPanic; the pool stays healthy.
//
// By default capabilities run one after another in registration order.
// Given a worker pool (see SetWorkers) they are scheduled in conflict-free
// waves from the declared footprints (Meta.Reads / Meta.Writes; see Resource
// and schedule.go): capabilities whose write sets are disjoint from each
// other's read+write sets share a wave and overlap, while conflicting
// capabilities execute in registration order across waves. The schedule
// depends only on the registered set, so the result and error maps and the
// final state of every declared actuation surface are identical for every
// pool size, the serial default included.
func (g *Grid) RunAll(ctx *RunContext) (map[string]Result, map[string]error) {
	results := make(map[string]Result, len(g.byName))
	errs := make(map[string]error)
	workers := min(g.workers, len(g.order))
	var panics int64
	collect := func(name string, res Result, err error) {
		if err != nil {
			if errors.Is(err, ErrCapabilityPanic) {
				panics++
			}
			errs[name] = err
			return
		}
		results[name] = res
	}
	if workers <= 1 {
		// Serial reference path: registration order, one wave. The wave
		// schedule is equivalent by construction (conflicting pairs keep
		// registration order; disjoint pairs commute).
		for _, name := range g.order {
			res, err := runSafely(g.byName[name], ctx)
			collect(name, res, err)
		}
		g.recordSweep(schedulePlan{waves: [][]string{g.order}}, panics, false)
		return results, errs
	}
	plan := g.plan()
	for _, wave := range plan.waves {
		g.runWave(ctx, wave, workers, collect)
	}
	g.recordSweep(plan, panics, true)
	return results, errs
}

// RenderTable renders the grid as a markdown table shaped like the paper's
// Table I: pillars as columns, types as rows (prescriptive on top), one
// capability name per line in each cell.
func (g *Grid) RenderTable() string {
	var b strings.Builder
	b.WriteString("| | Building Infrastructure | System Hardware | System Software | Applications |\n")
	b.WriteString("|---|---|---|---|---|\n")
	types := Types()
	for i := len(types) - 1; i >= 0; i-- { // paper orders prescriptive first
		t := types[i]
		b.WriteString("| **")
		b.WriteString(titleCase(t.String()))
		b.WriteString("** |")
		for _, p := range Pillars() {
			caps := g.byCell[Cell{Pillar: p, Type: t}]
			entries := make([]string, 0, len(caps))
			for _, c := range caps {
				e := c.Meta().Name
				if refs := c.Meta().Refs; len(refs) > 0 {
					e += " " + strings.Join(refs, ",")
				}
				entries = append(entries, e)
			}
			if len(entries) == 0 {
				b.WriteString(" |") // empty cell: single pad space, no stray gap
				continue
			}
			b.WriteString(" ")
			b.WriteString(strings.Join(entries, "<br>"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// titleCase capitalizes the first letter of an ASCII word.
func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// StageResult records one pipeline stage's execution.
type StageResult struct {
	Name     string
	Type     Type
	Result   Result
	Duration time.Duration
}

// Pipeline chains capabilities in the staged-maturity order of Fig. 2:
// stage types must be non-decreasing (descriptive feeds diagnostic feeds
// predictive feeds prescriptive). Each stage receives the previous stage's
// result via RunContext.Upstream.
type Pipeline struct {
	stages   []pipelineStage
	warnings []string
}

type pipelineStage struct {
	name string
	typ  Type
	cap  Capability
}

// Append adds a stage; it returns an error if the stage's type would move
// backwards in the staged model, and validates the new stage's footprint
// against its upstream: a stage that declares reads overlapping nothing
// the previous stage wrote is probably wired to the wrong upstream, and
// gets recorded in Warnings.
func (p *Pipeline) Append(t Type, c Capability) error {
	if t >= NumTypes {
		return fmt.Errorf("oda: invalid stage type %v", t)
	}
	m := c.Meta()
	if n := len(p.stages); n > 0 && t < p.stages[n-1].typ {
		return fmt.Errorf("oda: stage %q (%s) cannot follow %s — the staged model only moves toward foresight",
			m.Name, t, p.stages[n-1].typ)
	}
	for _, r := range append(append([]Resource(nil), m.Reads...), m.Writes...) {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("oda: stage %q footprint: %w", m.Name, err)
		}
	}
	if n := len(p.stages); n > 0 {
		prev := p.stages[n-1]
		upWrites := prev.cap.Meta().Writes
		if len(m.Reads) > 0 && len(upWrites) > 0 && !intersects(upWrites, m.Reads) {
			p.warnings = append(p.warnings, fmt.Sprintf(
				"stage %q reads none of the resources %q writes (reads %v, upstream writes %v)",
				m.Name, prev.name, m.Reads, upWrites))
		}
	}
	p.stages = append(p.stages, pipelineStage{name: m.Name, typ: t, cap: c})
	return nil
}

// Warnings returns the footprint-mismatch diagnostics accumulated while
// assembling the pipeline (see Append); empty for a cleanly wired chain.
func (p *Pipeline) Warnings() []string { return append([]string(nil), p.warnings...) }

// Len returns the stage count.
func (p *Pipeline) Len() int { return len(p.stages) }

// Run executes the stages in order over the context, threading results. A
// stage that panics is recovered into the returned error (wrapping
// ErrCapabilityPanic), leaving the completed prefix of stage results
// intact.
func (p *Pipeline) Run(ctx *RunContext) ([]StageResult, error) {
	out := make([]StageResult, 0, len(p.stages))
	var upstream *Result
	for _, st := range p.stages {
		stageCtx := *ctx
		stageCtx.Upstream = upstream
		start := time.Now()
		res, err := runSafely(st.cap, &stageCtx)
		if err != nil {
			return out, fmt.Errorf("oda: stage %q: %w", st.name, err)
		}
		out = append(out, StageResult{Name: st.name, Type: st.typ, Result: res, Duration: time.Since(start)})
		upstream = &res
	}
	return out, nil
}
