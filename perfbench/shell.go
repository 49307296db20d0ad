package main

import (
	"context"
	"time"

	"oscachesim"
	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// shellScale is shell-run's scheduling-round count: large enough that
// workload generation, not the simulator, takes most of the run.
const shellScale = 240

// setupReps is how many times a rep repeats a set-up that costs only
// microseconds, so its median is steady.
const setupReps = 25

// shellGrid is shell-run's single configuration: Shell under Blk_Dma
// on the paper's 4-CPU snooping machine.
func shellGrid(in input) campaign.Grid {
	return campaign.Grid{
		Workloads: []workload.Name{workload.Shell},
		Systems:   []core.System{core.BlkDma},
		Scale:     shellScale,
		Seed:      in.simSeed(),
	}
}

// timedSetups runs set-up n times, recording each duration, and returns
// the last plan.
func timedSetups(rep *repReport, n int, g campaign.Grid) (*campaign.Plan, error) {
	var plan *campaign.Plan
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p, err := setupPlan(g, nil, 0)
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		plan = p
	}
	return plan, nil
}

// shellUnit is one cold Shell/Blk_Dma run through the public facade on
// the default (materialized) execution path.
func shellUnit(ctx context.Context, in input, _ string) (*repReport, error) {
	rep := &repReport{Variant: in.Variant}
	plan, err := timedSetups(rep, setupReps, shellGrid(in))
	if err != nil {
		return nil, err
	}
	cfg := plan.Unique[0]
	t0 := time.Now()
	out, err := oscachesim.New(cfg.Workload, cfg.System,
		oscachesim.WithScale(cfg.Scale), oscachesim.WithSeed(cfg.Seed)).Run(ctx)
	wall := time.Since(t0)
	rep.Attempted = 1
	if err != nil {
		rep.fail("shell-run: %v", err)
		return rep, nil
	}
	rep.WallS = wall.Seconds()
	rep.Refs = out.Refs
	rep.JobMS = []float64{ms(wall)}
	rep.Digest = digest(out.Counters)
	return rep, nil
}

// shellTraced is shell-run decomposed into its layers' calls, followed
// by the probes of the layers it does not pass through.
func shellTraced(ctx context.Context, in input, fixtures string) (*repReport, error) {
	tr := newTracer()
	rep := &repReport{Variant: in.Variant, Attempted: 1}
	setup := tr.begin(0, benchLayer, "setup")
	t0 := time.Now()
	plan, err := setupPlan(shellGrid(in), tr, setup)
	tr.end(setup)
	rep.SetupS = []float64{time.Since(t0).Seconds()}
	if err != nil {
		return nil, err
	}
	rep.setLayer("campaign.plan_ms", ms(tr.sum("campaign", "NewPlan")))

	root := tr.begin(0, benchLayer, "shell-run")
	t0 = time.Now()
	out, parts, err := decomposedRun(ctx, plan.Unique[0], tr, root, nil)
	wall := time.Since(t0)
	tr.end(root)
	if err != nil {
		rep.fail("shell-run traced: %v", err)
		return rep, nil
	}
	rep.WallS = wall.Seconds()
	rep.Refs = out.Refs
	rep.JobMS = []float64{ms(wall)}
	rep.Digest = digest(out.Counters)
	setUnitLayers(rep, wall, parts, out.Refs, out.Counters.Cycles, out.Counters.Bus.TotalTransactions())

	probes(ctx, rep, tr, in, fixtures, "shell-run")
	return rep, nil
}

// setUnitLayers records the generation and simulation metrics of a
// traced unit: host time and allocation per layer, and the exact
// simulated totals (refs, cycles, bus transactions).
func setUnitLayers(rep *repReport, wall time.Duration, parts runParts, refs, cycles, bus uint64) {
	rep.setLayer("workload.build_s", parts.Build.Seconds())
	rep.setLayer("workload.alloc_mb", float64(parts.AllocB)/(1<<20))
	rep.setLayer("workload.share", parts.Build.Seconds()/wall.Seconds())
	rep.setLayer("sim.run_s", parts.Sim.Seconds())
	if refs > 0 {
		rep.setLayer("sim.ns_per_ref", float64(parts.Sim.Nanoseconds())/float64(refs))
	}
	rep.setLayer("sim.refs", float64(refs))
	rep.setLayer("sim.cycles", float64(cycles))
	rep.setLayer("sim.bus_transactions", float64(bus))
}

// streamProbe runs shell-run's configuration through the streaming
// pipeline (workload.Stream feeding sim.Run) and records the trace
// layer's metrics. Its counters must equal the materialized run's.
func streamProbe(ctx context.Context, rep *repReport, tr *tracer, in input) {
	rep.Attempted++
	cfg := core.RunConfig{Workload: workload.Shell, System: core.BlkDma, Scale: shellScale, Seed: in.simSeed()}
	p := machineFor(cfg)
	root := tr.begin(0, benchLayer, "stream-probe")
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin(root, "trace", "Stream")
	st := workload.Stream(cfg.Workload, cfg.System.KernelOpt(), cfg.Scale, cfg.Seed, workload.StreamOptions{NumCPUs: p.NumCPUs})
	s, err := sim.New(p, st.Sources())
	var res *sim.Result
	if err == nil {
		sid := tr.begin(id, "sim", "Run (streamed)")
		res, err = s.Run(ctx)
		tr.end(sid)
	}
	if err != nil {
		st.Abort()
		tr.end(id)
		rep.fail("stream probe: %v", err)
		return
	}
	err = st.Wait()
	tr.end(id)
	wall := time.Since(t0)
	if err != nil {
		rep.fail("stream probe: %v", err)
		return
	}
	_, blocked := st.GenStalls()
	rep.setLayer("trace.stream_s", wall.Seconds())
	rep.setLayer("trace.producer_blocked_s", blocked.Seconds())
	rep.setLayer("trace.peak_pending_refs", float64(st.PeakPendingRefs()))
	rep.StreamDigest = digest(res.Counters)
}
