package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"oscachesim/internal/check"
	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// TestRunMonitorStreamedCheck attaches the differential oracle through
// Monitor to a streamed run: the observer sees every reference of the
// chunk pipeline and reports no divergence.
func TestRunMonitorStreamedCheck(t *testing.T) {
	var k *check.Checker
	o, err := core.Run(context.Background(), core.RunConfig{
		Workload: workload.Shell, System: core.BCPref, Scale: 4, Seed: 1,
		Monitor: func(s *sim.Simulator, _ sim.Params) { k = check.Attach(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if k == nil {
		t.Fatal("Monitor never ran")
	}
	if divs := k.Report(); len(divs) != 0 {
		t.Fatalf("%d divergences on a streamed run; first: %v", len(divs), divs[0])
	}
	if o.Refs == 0 {
		t.Fatal("run simulated no references")
	}
}

// cancelAfter cancels a context once the simulator has begun n
// references.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Observe(ev sim.Event) {
	if ev.Kind != sim.EvRef {
		return
	}
	if c.n--; c.n == 0 {
		c.cancel()
	}
}

// TestRunCanceledWithMonitorReleasesProducer cancels a monitored run
// mid-simulation: Run must report the cancellation, and tearing down
// the pipeline must leave no producer goroutine behind.
func TestRunCanceledWithMonitorReleasesProducer(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := core.Run(ctx, core.RunConfig{
		Workload: workload.Shell, System: core.Base, Scale: 200, Seed: 1,
		Monitor: func(s *sim.Simulator, _ sim.Params) {
			s.SetObserver(&cancelAfter{n: 50_000, cancel: cancel})
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the canceled run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
