package experiment

import (
	"context"
	"errors"
	"testing"

	"oscachesim/internal/check"
	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// TestParallelSchedulerDeterminism renders every experiment twice —
// once with a serial runner and once through the work-stealing
// scheduler — and requires byte-identical output. This is the
// guarantee the parallel sweep rests on: the schedule may reorder
// *when* simulations run, but never what they compute, so `sweep
// -parallel` and the golden files stay interchangeable. The test runs
// under -race in CI, which also exercises the scheduler's deques and
// the Runner cache under real contention.
func TestParallelSchedulerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid double render is slow")
	}
	cfg := TestConfig()
	serial := NewRunner(cfg)
	pcfg := cfg
	pcfg.Parallel = true
	pcfg.Workers = 4
	parallel := NewRunner(pcfg)
	if err := parallel.WarmUp(AllPairs()); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		want, err := e.Render(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		got, err := e.Render(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		if got != want {
			t.Errorf("%s: parallel render differs from serial", e.ID)
		}
	}
}

// TestIntraParallelDeterminism is the intra-run parallel determinism
// tier: the epoch-sharded engine (RunConfig.IntraWorkers) must be a
// pure execution strategy, never changing what a run computes. Three
// layers of evidence:
//
//  1. Every paper experiment renders byte-identically with the intra
//     engine on.
//  2. Every scenario preset, on both the paper's 4-CPU snooping
//     machine and a 16-CPU directory machine, matches an
//     oracle-verified serial baseline (check.Differential replays the
//     serial run against the flat-memory oracle, so the baseline
//     itself is known-good, not merely self-consistent) on counters,
//     reference totals and per-CPU clocks.
//  3. A workload known to admit parallel windows proves the engine
//     actually ran windows concurrently — guarding against the
//     vacuous pass where every window falls back to serial execution.
//
// Under -race in CI (at GOMAXPROCS 1 and 4) this also exercises the
// window workers' clone/commit protocol under real contention.
func TestIntraParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-strategy grid rerun is slow")
	}
	ctx := context.Background()

	// Layer 1: all paper experiments, byte-identical renders.
	cfg := TestConfig()
	serial := NewRunner(cfg)
	icfg := cfg
	icfg.IntraWorkers = 4
	intra := NewRunner(icfg)
	for _, e := range All() {
		want, err := e.Render(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		got, err := e.Render(intra)
		if err != nil {
			t.Fatalf("%s intra-parallel: %v", e.ID, err)
		}
		if got != want {
			t.Errorf("%s: intra-parallel render differs from serial", e.ID)
		}
	}

	// Layer 2: every scenario preset on both machine geometries
	// against an oracle-verified serial baseline.
	machines := map[string]func() *sim.Params{
		"snoop-4": nil,
		"dir-16": func() *sim.Params {
			p := sim.DefaultParams()
			p.NumCPUs = 16
			p.Coherence = sim.CoherenceDirectory
			return &p
		},
	}
	for _, preset := range scenario.PresetNames() {
		for mname, mk := range machines {
			base := scenarioCfg(t, preset, core.Base)
			if mk != nil {
				base.Machine = mk()
			}
			want, err := check.Differential(ctx, base)
			if err != nil {
				t.Fatalf("%s/%s oracle baseline: %v", preset, mname, err)
			}
			v := scenarioCfg(t, preset, core.Base)
			if mk != nil {
				v.Machine = mk()
			}
			v.IntraWorkers = 4
			got, err := core.Run(ctx, v)
			if err != nil {
				t.Fatalf("%s/%s intra-parallel: %v", preset, mname, err)
			}
			if got.Counters != want.Counters {
				t.Errorf("%s/%s: intra-parallel counters differ from oracle-verified serial", preset, mname)
			}
			if got.Refs != want.Refs {
				t.Errorf("%s/%s: intra-parallel simulated %d refs, serial %d", preset, mname, got.Refs, want.Refs)
			}
			if len(got.CPUTime) != len(want.CPUTime) {
				t.Fatalf("%s/%s: intra-parallel reports %d CPU clocks, serial %d",
					preset, mname, len(got.CPUTime), len(want.CPUTime))
			}
			for i := range want.CPUTime {
				if got.CPUTime[i] != want.CPUTime[i] {
					t.Errorf("%s/%s: intra-parallel cpu%d clock %d, serial %d",
						preset, mname, i, got.CPUTime[i], want.CPUTime[i])
				}
			}
		}
	}

	// Layer 3: the pass must not be vacuous. TRFD's private-data loops
	// are the friendliest case the engine has; if even this run
	// executes zero windows concurrently, the engine is disabled or
	// the planner has regressed into permanent serial fallback.
	var captured *sim.Simulator
	probe := core.RunConfig{
		Workload: workload.TRFD4, System: core.Base, Scale: 10, Seed: 7,
		IntraWorkers: 4,
		Monitor:      func(s *sim.Simulator, _ sim.Params) { captured = s },
	}
	if _, err := core.Run(ctx, probe); err != nil {
		t.Fatalf("engine probe: %v", err)
	}
	if captured == nil {
		t.Fatal("engine probe: monitor never ran")
	}
	windows, parallelWindows, parallelRefs := captured.IntraStats()
	if parallelWindows == 0 || parallelRefs == 0 {
		t.Errorf("engine probe: %d windows but %d parallel (refs %d) — intra engine never ran a window concurrently",
			windows, parallelWindows, parallelRefs)
	}
}

// TestRunConfigsOrderAndProgress checks the scheduler's two output
// contracts directly: outcomes come back in input order regardless of
// which worker ran them, and a shared Progress accumulates every
// completed run's reference total.
func TestRunConfigsOrderAndProgress(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Parallel: true, Workers: 3})
	var cfgs []core.RunConfig
	for _, sys := range []core.System{core.Base, core.BlkDma, core.BCPref, core.Base} {
		cfgs = append(cfgs, core.RunConfig{Workload: workload.Shell, System: sys, Scale: 3, Seed: 1})
	}
	var prog sim.Progress
	outs, err := r.RunConfigs(context.Background(), cfgs, &prog)
	if err != nil {
		t.Fatal(err)
	}
	var wantRefs uint64
	for i, o := range outs {
		if o == nil {
			t.Fatalf("outcome %d missing", i)
		}
		if o.Config.System != cfgs[i].System {
			t.Errorf("outcome %d: got system %s, want %s", i, o.Config.System, cfgs[i].System)
		}
		wantRefs += o.Refs
	}
	if outs[0] != outs[3] {
		t.Error("duplicate configuration did not share one cached outcome")
	}
	if got := prog.Snapshot().Refs; got != wantRefs {
		t.Errorf("progress refs = %d, want %d", got, wantRefs)
	}
}

// TestRunConfigsCancellation checks that a failing configuration
// cancels the remaining work and surfaces its error.
func TestRunConfigsCancellation(t *testing.T) {
	r := NewRunner(Config{Scale: 3, Seed: 1, Parallel: true, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []core.RunConfig{
		{Workload: workload.Shell, System: core.Base, Scale: 3, Seed: 1},
		{Workload: workload.TRFD4, System: core.Base, Scale: 3, Seed: 1},
	}
	if _, err := r.RunConfigs(ctx, cfgs, nil); err == nil {
		t.Fatal("want error from canceled context")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDirectoryDeterminism pins the generalized machine to the same
// reproducibility bar as the paper's: a 16-CPU directory-coherent run
// must be byte-identical whether it executes serially, through the
// work-stealing scheduler, or on the intra-run parallel engine. Under -race
// in CI this also exercises the per-home port timelines and the
// directory map under real scheduler contention.
func TestDirectoryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("triple directory run is slow")
	}
	machine := func() *sim.Params {
		p := sim.DefaultParams()
		p.NumCPUs = 16
		p.Coherence = sim.CoherenceDirectory
		return &p
	}
	base := core.RunConfig{
		Workload: workload.Shell, System: core.BlkDma, Scale: 2, Seed: 1,
		Machine: machine(),
	}
	want, err := core.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if want.Refs == 0 {
		t.Fatal("no references simulated")
	}

	intra := base
	intra.Machine = machine()
	intra.IntraWorkers = 4
	gotIntra, err := core.Run(context.Background(), intra)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(Config{Scale: 2, Seed: 1, Parallel: true, Workers: 4})
	par := base
	par.Machine = machine()
	outs, err := r.RunConfigs(context.Background(), []core.RunConfig{par}, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, got := range map[string]*core.Outcome{
		"intra-parallel": gotIntra, "parallel scheduler": outs[0],
	} {
		if got.Counters != want.Counters {
			t.Errorf("%s counters differ from the serial run", name)
		}
		if got.Refs != want.Refs {
			t.Errorf("%s simulated %d refs, serial %d", name, got.Refs, want.Refs)
		}
		if len(got.CPUTime) != len(want.CPUTime) {
			t.Fatalf("%s reports %d CPU clocks, serial %d", name, len(got.CPUTime), len(want.CPUTime))
		}
		for i := range want.CPUTime {
			if got.CPUTime[i] != want.CPUTime[i] {
				t.Errorf("%s cpu%d clock %d, serial %d", name, i, got.CPUTime[i], want.CPUTime[i])
			}
		}
	}
}
