package experiment

import (
	"context"
	"runtime"
	"sync"
	"time"

	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/trace"
)

// This file is the parallel sweep scheduler: a work-stealing runner
// that fans independent simulation configurations across workers while
// keeping results byte-identical to a serial run. Determinism holds
// because each configuration is itself deterministic (same canonical
// key, same outcome) and results are assembled in input order — the
// schedule changes only *when* a run executes, never what it computes.
// The Runner's content-addressed cache deduplicates configurations that
// appear more than once regardless of which worker gets them first.

// deque is one worker's job queue of indices into the config list.
// The owner pops newest-first from the bottom (its own recently pushed
// work stays cache-warm); thieves steal oldest-first from the top,
// which takes the work the owner is furthest from reaching. Jobs here
// are whole simulations — milliseconds to seconds each — so a plain
// mutex costs nothing measurable and keeps the structure obvious.
type deque struct {
	mu   sync.Mutex
	jobs []int
}

func (d *deque) popBottom() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return 0, false
	}
	i := d.jobs[len(d.jobs)-1]
	d.jobs = d.jobs[:len(d.jobs)-1]
	return i, true
}

func (d *deque) stealTop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.jobs) == 0 {
		return 0, false
	}
	i := d.jobs[0]
	d.jobs = d.jobs[1:]
	return i, true
}

// WorkerStats is one scheduler worker's accounting for the last
// RunConfigs call: where its wall clock went (running simulations vs
// idle — queue empty, stealing, or waiting out cancellation) and how
// much of its work it took from other workers' deques. The same
// busy/idle attribution the paper applies to processor stall time,
// applied to the sweep scheduler itself.
type WorkerStats struct {
	// Busy is the wall time spent inside simulation runs.
	Busy time.Duration
	// Idle is the rest of the worker's lifetime: deque scans, steal
	// attempts, and the tail wait after its work ran out.
	Idle time.Duration
	// Runs is the number of configurations this worker executed.
	Runs int
	// Steals is how many of those it took from another worker's deque.
	Steals int
}

// LastSchedulerStats returns the per-worker accounting of the most
// recent RunConfigs call (one entry per worker; a serial run has one).
// Nil until RunConfigs has completed at least once.
func (r *Runner) LastSchedulerStats() []WorkerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStats, len(r.lastSched))
	copy(out, r.lastSched)
	if len(out) == 0 {
		return nil
	}
	return out
}

// workers returns the scheduler width for this Runner's config: 1 when
// parallelism is off, the explicit worker count when one was set, and
// GOMAXPROCS otherwise.
func (r *Runner) workers() int {
	if !r.cfg.Parallel {
		return 1
	}
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunConfigs executes every configuration and returns outcomes in
// input order. With a parallel config the work fans across workers
// with work stealing; duplicated configurations are computed once via
// the Runner cache. A non-nil prog receives each completed run's
// totals (references, OS read misses, cycles) as accumulating deltas.
//
// The first error cancels the remaining work and is returned; partial
// outcomes are discarded.
func (r *Runner) RunConfigs(ctx context.Context, cfgs []core.RunConfig, prog *sim.Progress) ([]*core.Outcome, error) {
	return r.RunConfigsEach(ctx, cfgs, prog, nil)
}

// RunConfigsEach is RunConfigs with a per-completion hook: each, when
// non-nil, is called once per configuration as soon as its outcome is
// available, with the input index and the outcome. Under a parallel
// config the hook fires on worker goroutines, possibly concurrently —
// the caller synchronizes. Callers that need partial results on
// cancellation (a campaign reporting the cells that finished) collect
// them here; the returned slice is still all-or-nothing.
func (r *Runner) RunConfigsEach(ctx context.Context, cfgs []core.RunConfig, prog *sim.Progress, each func(idx int, o *core.Outcome)) ([]*core.Outcome, error) {
	outs := make([]*core.Outcome, len(cfgs))
	n := r.workers()
	if n > len(cfgs) {
		n = len(cfgs)
	}
	if n <= 1 {
		start := time.Now()
		var busy time.Duration
		for i, cfg := range cfgs {
			t0 := time.Now()
			o, err := r.OutcomeConfig(ctx, cfg)
			busy += time.Since(t0)
			if err != nil {
				return nil, err
			}
			outs[i] = o
			publishOutcome(prog, o)
			if each != nil {
				each(i, o)
			}
		}
		r.recordSched([]WorkerStats{{Busy: busy, Idle: time.Since(start) - busy, Runs: len(cfgs)}})
		return outs, nil
	}

	// Deal configurations round-robin so every worker starts with a
	// spread of the input; stealing rebalances whatever the deal got
	// wrong (run times vary by an order of magnitude across systems).
	deques := make([]*deque, n)
	for w := range deques {
		deques[w] = &deque{}
	}
	for i := range cfgs {
		w := i % n
		deques[w].jobs = append(deques[w].jobs, i)
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	// Each worker writes only its own stats slot, so the accounting adds
	// no synchronization to the scheduling loop. Idle is settled after
	// the join against one shared start, so it includes each worker's
	// tail wait for the slowest one.
	sched := make([]WorkerStats, n)
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			ws := &sched[self]
			for {
				idx, ok := deques[self].popBottom()
				stolen := false
				for off := 1; !ok && off < n; off++ {
					idx, ok = deques[(self+off)%n].stealTop()
					stolen = ok
				}
				if !ok || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				o, err := r.OutcomeConfig(ctx, cfgs[idx])
				ws.Busy += time.Since(t0)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel(err)
					})
					return
				}
				ws.Runs++
				if stolen {
					ws.Steals++
				}
				outs[idx] = o
				publishOutcome(prog, o)
				if each != nil {
					each(idx, o)
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for i := range sched {
		sched[i].Idle = wall - sched[i].Busy
	}
	r.recordSched(sched)
	if firstErr != nil {
		return nil, firstErr
	}
	if ctx.Err() != nil {
		// Workers drained out because the caller's context died, not
		// because the work finished; outs has holes.
		return nil, context.Cause(ctx)
	}
	return outs, nil
}

// recordSched stores the per-worker accounting of a finished
// RunConfigs call for LastSchedulerStats.
func (r *Runner) recordSched(sched []WorkerStats) {
	r.mu.Lock()
	r.lastSched = sched
	r.mu.Unlock()
}

// publishOutcome feeds one completed run's totals to an aggregate
// progress feed.
func publishOutcome(prog *sim.Progress, o *core.Outcome) {
	if prog == nil {
		return
	}
	prog.Publish(o.Refs, o.Counters.DReadMisses[trace.KindOS], o.Counters.Cycles)
}
