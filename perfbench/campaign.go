package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/experiment"
	"oscachesim/internal/report"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
)

// campaignSize fixes one sharing-degree grid: the degrees swept, the
// systems compared at each, and the scheduling rounds per cell.
type campaignSize struct {
	Sharers []int
	Systems []core.System
	Scale   int
}

var (
	// sharingCampaign is the sharing-campaign workload: degrees 1 to 16
	// on the 16-CPU directory machine, Base against the full system.
	sharingCampaign = campaignSize{Sharers: []int{1, 2, 4, 8, 16}, Systems: []core.System{core.Base, core.BCPref}, Scale: 3}
	// campaignProbe measures the experiment and report layers in the
	// traced runs of workloads that do not run a campaign.
	campaignProbe = campaignSize{Sharers: []int{1, 16}, Systems: []core.System{core.Base}, Scale: 1}
)

func sharingGrid(in input, size campaignSize) (campaign.Grid, error) {
	spec, err := scenario.Preset("sharing")
	if err != nil {
		return campaign.Grid{}, err
	}
	return campaign.Grid{
		Scenario:  spec,
		Sharers:   size.Sharers,
		CPUs:      []int{16},
		Coherence: []sim.CoherenceKind{sim.CoherenceDirectory},
		Systems:   size.Systems,
		Scale:     size.Scale,
		Seed:      in.simSeed(),
	}, nil
}

// cellRunner wraps the campaign's ConfigRunner to time each unique
// configuration's arrival (a cell's submit-to-result latency) and, when
// tracing, to open the experiment layer's span around the fan-out.
type cellRunner struct {
	inner  campaign.ConfigRunner
	start  time.Time
	tr     *tracer
	parent int
	span   atomic.Int64 // experiment span id, read by traced computes
	fanout time.Duration

	mu   sync.Mutex
	done map[int]time.Duration
}

func (c *cellRunner) RunConfigsEach(ctx context.Context, cfgs []core.RunConfig, prog *sim.Progress, each func(int, *core.Outcome)) ([]*core.Outcome, error) {
	id := c.tr.begin(c.parent, "experiment", "RunConfigsEach")
	c.span.Store(int64(id))
	t0 := time.Now()
	defer func() {
		c.fanout = time.Since(t0)
		c.tr.end(id)
	}()
	return c.inner.RunConfigsEach(ctx, cfgs, prog, func(i int, o *core.Outcome) {
		c.mu.Lock()
		c.done[i] = time.Since(c.start)
		c.mu.Unlock()
		each(i, o)
	})
}

// renderReport renders the grid report: the Figure 3 layout with one
// bar per sharing degree, and the Base-to-BCPref diff when both systems
// are in the grid. It returns the number of diff rows.
func renderReport(cells []campaign.CellOutcome, size campaignSize) (string, int) {
	gc := campaign.GridCells(cells)
	chart := campaign.Chart("sharing-degree campaign", campaign.AxisSharers, gc)
	if len(size.Systems) < 2 {
		return chart, 0
	}
	rows := report.DiffCells(gc, campaign.AxisSystem, size.Systems[0].String(), size.Systems[1].String(), campaign.DiffMetrics)
	return chart, len(rows)
}

// checkCampaign verifies a finished grid and returns its digest: one
// outcome per cell, a non-empty chart, and a diff row per degree and
// metric.
func checkCampaign(rep *repReport, plan *campaign.Plan, cells []campaign.CellOutcome, chart string, diffRows int, size campaignSize) {
	if len(cells) != len(plan.Cells) {
		rep.fail("campaign: %d of %d cells completed", len(cells), len(plan.Cells))
	}
	if chart == "" {
		rep.fail("campaign: empty report")
	}
	if len(size.Systems) > 1 && diffRows != len(size.Sharers)*len(campaign.DiffMetrics) {
		rep.fail("campaign: %d diff rows, want %d", diffRows, len(size.Sharers)*len(campaign.DiffMetrics))
	}
	type cellCounters struct {
		Coords   map[string]string
		Counters any
	}
	out := make([]cellCounters, len(cells))
	for i, c := range cells {
		out[i] = cellCounters{c.Cell.Coords, c.Outcome.Counters}
		rep.Refs += c.Outcome.Refs
	}
	rep.Digest = digest(out)
}

// campaignUnit is the sharing-degree grid through campaign.Run on a
// two-worker experiment.Runner, plus its rendered report.
func campaignUnit(ctx context.Context, in input, _ string) (*repReport, error) {
	rep := &repReport{Variant: in.Variant}
	g, err := sharingGrid(in, sharingCampaign)
	if err != nil {
		return nil, err
	}
	plan, err := timedSetups(rep, setupReps, g)
	if err != nil {
		return nil, err
	}
	rep.Attempted = len(plan.Cells)
	runner := experiment.NewRunner(experiment.Config{Parallel: true, Workers: width()})
	cr := &cellRunner{inner: runner, start: time.Now(), done: map[int]time.Duration{}}
	cells, err := campaign.Run(ctx, cr, plan, nil)
	chart, diffRows := renderReport(cells, sharingCampaign)
	wall := time.Since(cr.start)
	if err != nil {
		rep.fail("campaign: %v", err)
		return rep, nil
	}
	rep.WallS = wall.Seconds()
	rep.JobMS = cellLatencies(plan, cr.done)
	checkCampaign(rep, plan, cells, chart, diffRows, sharingCampaign)
	return rep, nil
}

// cellLatencies maps each cell to the arrival time of its unique
// configuration.
func cellLatencies(plan *campaign.Plan, done map[int]time.Duration) []float64 {
	out := make([]float64, 0, len(plan.Cells))
	for i, key := range plan.UniqueKeys {
		for range plan.ByKey[key] {
			out = append(out, ms(done[i]))
		}
	}
	return out
}

// campaignTraced is a campaign decomposed into its layers' calls: the
// runner's compute hook builds and simulates each cell through
// decomposedRun, so generation and simulation get spans of their own.
func campaignTraced(ctx context.Context, tr *tracer, in input, size campaignSize) (*repReport, error) {
	rep := &repReport{Variant: in.Variant}
	g, err := sharingGrid(in, size)
	if err != nil {
		return nil, err
	}
	setup := tr.begin(0, benchLayer, "setup")
	t0 := time.Now()
	plan, err := setupPlan(g, tr, setup)
	tr.end(setup)
	rep.SetupS = []float64{time.Since(t0).Seconds()}
	if err != nil {
		return nil, err
	}
	rep.setLayer("campaign.plan_ms", ms(tr.sum("campaign", "NewPlan")))
	rep.Attempted = len(plan.Cells)

	root := tr.begin(0, benchLayer, "sharing-campaign")
	var (
		allocMu sync.Mutex
		partsMu sync.Mutex
		total   runParts
		outs    []*core.Outcome
	)
	cr := &cellRunner{tr: tr, done: map[int]time.Duration{}}
	compute := func(ctx context.Context, cfg core.RunConfig) (*core.Outcome, error) {
		o, parts, err := decomposedRun(ctx, cfg, tr, int(cr.span.Load()), &allocMu)
		partsMu.Lock()
		total.Build += parts.Build
		total.Sim += parts.Sim
		total.AllocB += parts.AllocB
		if o != nil {
			outs = append(outs, o)
		}
		partsMu.Unlock()
		return o, err
	}
	runner := experiment.NewRunner(experiment.Config{Parallel: true, Workers: width(), Compute: compute})
	cr.inner = runner
	cr.start = time.Now()
	id := tr.begin(root, "campaign", "Run")
	cr.parent = id
	cells, err := campaign.Run(ctx, cr, plan, nil)
	tr.end(id)
	id = tr.begin(root, "report", "render")
	r0 := time.Now()
	chart, diffRows := renderReport(cells, size)
	render := time.Since(r0)
	tr.end(id)
	wall := time.Since(cr.start)
	tr.end(root)
	if err != nil {
		rep.fail("campaign traced: %v", err)
		return rep, nil
	}
	rep.WallS = wall.Seconds()
	rep.JobMS = cellLatencies(plan, cr.done)
	checkCampaign(rep, plan, cells, chart, diffRows, size)

	// A worker's WorkerStats.Idle stops when that worker exits, before
	// the grid ends, so it misses the wait for the slowest worker. Idle
	// is taken instead as the fan-out's wall time minus each worker's
	// Busy.
	var busy time.Duration
	stats := runner.LastSchedulerStats()
	for _, w := range stats {
		busy += w.Busy
	}
	if lifetime := cr.fanout * time.Duration(len(stats)); lifetime > 0 {
		rep.setLayer("experiment.idle_frac", (lifetime-busy).Seconds()/lifetime.Seconds())
	}
	rep.setLayer("report.render_ms", ms(render))
	var cycles, bus uint64
	for _, o := range outs {
		cycles += o.Counters.Cycles
		bus += o.Counters.Bus.TotalTransactions()
	}
	setUnitLayers(rep, wall, total, rep.Refs, cycles, bus)
	return rep, nil
}

// campaignTracedRep is sharing-campaign's traced rep: the full grid,
// then the probes of the layers a campaign does not pass through.
func campaignTracedRep(ctx context.Context, in input, fixtures string) (*repReport, error) {
	tr := newTracer()
	rep, err := campaignTraced(ctx, tr, in, sharingCampaign)
	if err != nil {
		return nil, err
	}
	probes(ctx, rep, tr, in, fixtures, "sharing-campaign")
	return rep, nil
}
