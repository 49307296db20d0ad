package experiment

import (
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/workload"
)

// TestRunnerParallelWarmUp drives the concurrent warm-up path — the
// only place the Runner runs simulations on multiple goroutines — so
// `go test -race` can observe the memoization cache and the semaphore
// under real contention. The pair list deliberately repeats entries:
// concurrent requests for the same key race to fill the same cache
// slot.
func TestRunnerParallelWarmUp(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Parallel: true})
	pairs := []Pair{
		{workload.Shell, core.Base},
		{workload.Shell, core.BlkDma},
		{workload.TRFD4, core.Base},
		{workload.TRFD4, core.BCPref},
		{workload.Shell, core.Base}, // duplicate: same-key contention
		{workload.TRFD4, core.Base},
	}
	if err := r.WarmUp(pairs); err != nil {
		t.Fatal(err)
	}
	// Post-warm-up reads must hit the cache and agree with a serial
	// runner on the same configuration.
	serial := NewRunner(Config{Scale: 3, Seed: 1, Parallel: false})
	for _, pr := range pairs {
		a, err := r.Outcome(pr.Workload, pr.System)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serial.Outcome(pr.Workload, pr.System)
		if err != nil {
			t.Fatal(err)
		}
		if a.Counters != b.Counters {
			t.Errorf("%s/%s: parallel and serial runs disagree", pr.Workload, pr.System)
		}
	}
}

// TestSchedulerStats pins the per-worker accounting contract: after a
// RunConfigs call the Runner reports one WorkerStats entry per worker,
// the run counts add up to the executed work, busy time is nonzero
// wherever runs happened, and every worker's Busy+Idle spans the same
// wall clock (Idle includes the tail wait for the slowest worker).
// Exercised in parallel and serial form (the serial path reports a
// single worker).
func TestSchedulerStats(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Parallel: true, Workers: 2})
	if r.LastSchedulerStats() != nil {
		t.Error("stats present before any RunConfigs call")
	}
	cfgs := make([]core.RunConfig, 0, 6)
	for _, sys := range []core.System{core.Base, core.BlkDma, core.BCPref} {
		for _, w := range []workload.Name{workload.Shell, workload.TRFD4} {
			cfgs = append(cfgs, core.RunConfig{Workload: w, System: sys, Scale: 3, Seed: 1})
		}
	}
	if _, err := r.RunConfigs(r.ctx, cfgs, nil); err != nil {
		t.Fatal(err)
	}
	sched := r.LastSchedulerStats()
	if len(sched) != 2 {
		t.Fatalf("got %d worker entries, want 2", len(sched))
	}
	totalRuns := 0
	for i, ws := range sched {
		totalRuns += ws.Runs
		if ws.Runs > 0 && ws.Busy <= 0 {
			t.Errorf("worker %d ran %d configs with no busy time", i, ws.Runs)
		}
		if ws.Steals > ws.Runs {
			t.Errorf("worker %d stole %d of %d runs", i, ws.Steals, ws.Runs)
		}
	}
	if totalRuns != len(cfgs) {
		t.Errorf("workers report %d runs, want %d", totalRuns, len(cfgs))
	}
	for i, ws := range sched {
		if span, want := ws.Busy+ws.Idle, sched[0].Busy+sched[0].Idle; span != want {
			t.Errorf("worker %d busy+idle = %v, worker 0 = %v; every worker spans the whole call", i, span, want)
		}
	}

	serial := NewRunner(Config{Scale: 3, Seed: 1, Parallel: false})
	if _, err := serial.RunConfigs(serial.ctx, cfgs[:2], nil); err != nil {
		t.Fatal(err)
	}
	sched = serial.LastSchedulerStats()
	if len(sched) != 1 || sched[0].Runs != 2 || sched[0].Steals != 0 {
		t.Errorf("serial stats = %+v, want one worker with 2 runs", sched)
	}
}
