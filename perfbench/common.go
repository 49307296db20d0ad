package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sync"
	"time"

	"oscachesim/internal/campaign"
	"oscachesim/internal/core"
	"oscachesim/internal/sim"
	"oscachesim/internal/workload"
)

// repReport is what one child process (one repetition) hands back to
// the parent on its last line of output.
type repReport struct {
	// SetupS holds one duration per set-up performed in the rep.
	SetupS []float64 `json:"setup_s"`
	// WallS is the host time of the timed unit.
	WallS float64 `json:"wall_s"`
	// Refs is the number of references simulated inside the unit.
	Refs uint64 `json:"refs"`
	// JobMS holds one submit-to-result latency per job of the unit.
	JobMS []float64 `json:"job_ms"`
	// Variant is the input variant the rep ran.
	Variant int `json:"variant"`
	// Digest identifies the simulated counters of the unit's results.
	Digest string `json:"digest"`
	// StreamDigest identifies the counters of the streamed shell-run
	// probe (traced reps only).
	StreamDigest string `json:"stream_digest,omitempty"`
	// Attempted counts operations; Failures describes each that failed.
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
	// Layers carries the per-layer metrics of a traced rep; Samples the
	// raw samples behind its percentile metrics.
	Layers  map[string]float64   `json:"layers,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func (r *repReport) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// setLayer records a per-layer metric unless an earlier, more specific
// measurement (the workload's own unit) already set it.
func (r *repReport) setLayer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = make(map[string]float64)
	}
	if _, ok := r.Layers[name]; !ok {
		r.Layers[name] = v
	}
}

// merge adopts a probe's per-layer metrics and samples for the names
// the unit did not measure, and its failures.
func (r *repReport) merge(p *repReport) {
	for k, v := range p.Layers {
		r.setLayer(k, v)
	}
	for k, v := range p.Samples {
		if _, ok := r.Samples[k]; !ok {
			if r.Samples == nil {
				r.Samples = make(map[string][]float64)
			}
			r.Samples[k] = v
		}
	}
	r.Attempted += p.Attempted
	r.Failures = append(r.Failures, p.Failures...)
}

// variants is how many input variants a run cycles through: rep i runs
// variant i mod variants. Every variant's inputs are drawn from --seed,
// so a run's medians span several inputs and no quirk of one input (a
// garbage collection landing at the memory peak, say) sets them.
const variants = 4

// input names a rep's inputs: the benchmark seed and the variant.
type input struct {
	Seed    int64
	Variant int
}

// simSeed derives the simulator's seed from the benchmark seed and the
// variant: the program receives only inputs generated from --seed.
func (in input) simSeed() int64 {
	rng := rand.New(rand.NewSource(in.Seed))
	var s int64
	for i := 0; i <= in.Variant; i++ {
		s = 1 + rng.Int63n(1<<30)
	}
	return s
}

// machineFor resolves a run's machine the way core.Run does for the
// configurations this benchmark issues (no update-set, pure-update or
// conflict-census overrides): the base machine plus the system's
// hardware overlay.
func machineFor(cfg core.RunConfig) sim.Params {
	p := sim.DefaultParams()
	if cfg.Machine != nil {
		p = *cfg.Machine
	}
	cfg.System.Apply(&p)
	p.IntraWorkers = cfg.IntraWorkers
	return p
}

// setupPlan is the set-up every workload shares: campaign.NewPlan over
// the workload's configurations, then validation of every planned
// machine.
func setupPlan(g campaign.Grid, tr *tracer, parent int) (*campaign.Plan, error) {
	id := tr.begin(parent, "campaign", "NewPlan")
	plan, err := campaign.NewPlan(g)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, "sim", "Params.Validate")
	defer tr.end(id)
	for _, cfg := range plan.Unique {
		p := machineFor(cfg)
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// runParts is the host time and allocation one decomposed run spent in
// each layer.
type runParts struct {
	Build, Sim time.Duration
	AllocB     uint64
}

// decomposedRun executes one configuration through the layers' public
// functions — workload.BuildN/BuildSpec, then sim.New and Run — with a
// span around each call. It returns the same outcome as core.Run for
// the configurations this benchmark issues; the traced-versus-untraced
// digest check holds it to that. allocMu, when non-nil, serializes the
// builds of concurrent callers so each build's allocations are its own.
func decomposedRun(ctx context.Context, cfg core.RunConfig, tr *tracer, parent int, allocMu *sync.Mutex) (*core.Outcome, runParts, error) {
	var parts runParts
	p := machineFor(cfg)
	opt := cfg.System.KernelOpt()
	if allocMu != nil {
		allocMu.Lock()
	}
	a0 := allocBytes()
	t0 := time.Now()
	id := tr.begin(parent, "workload", "Build")
	var built *workload.Built
	var err error
	if cfg.Scenario != nil {
		built, err = workload.BuildSpec(cfg.Scenario, opt, cfg.Scale, cfg.Seed, p.NumCPUs)
	} else {
		built = workload.BuildN(cfg.Workload, opt, cfg.Scale, cfg.Seed, p.NumCPUs)
	}
	tr.end(id)
	parts.Build = time.Since(t0)
	parts.AllocB = allocBytes() - a0
	if allocMu != nil {
		allocMu.Unlock()
	}
	if err != nil {
		return nil, parts, err
	}

	t0 = time.Now()
	id = tr.begin(parent, "sim", "Run")
	s, err := sim.New(p, built.Sources())
	var res *sim.Result
	if err == nil {
		res, err = s.Run(ctx)
	}
	tr.end(id)
	parts.Sim = time.Since(t0)
	if err != nil {
		return nil, parts, err
	}
	id = tr.begin(parent, "workload", "Release")
	built.Release()
	tr.end(id)
	if cfg.Scenario != nil {
		cfg.Workload = workload.SpecWorkloadName(cfg.Scenario)
	}
	return &core.Outcome{
		Config:   cfg,
		Counters: res.Counters,
		Deferred: built.Kernel.DeferredCopies(),
		Refs:     res.Refs,
		CPUTime:  res.CPUTime,
	}, parts, nil
}

// allocBytes reads the cumulative heap allocation of the process
// without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// digest hashes a JSON rendering of simulated results. Equal counters
// give equal digests; any change to a simulated statistic changes it.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err)) // counters always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// summary is the part of a run's counters the daemon API returns
// (server.RunResult), used to check daemon jobs against core.Run.
type summary struct {
	Refs            uint64 `json:"refs"`
	Cycles          uint64 `json:"cycles"`
	OSCycles        uint64 `json:"os_cycles"`
	DReads          uint64 `json:"d_reads"`
	DReadMisses     uint64 `json:"d_read_misses"`
	OSReadMisses    uint64 `json:"os_read_misses"`
	BusTransactions uint64 `json:"bus_transactions"`
	BusBytes        uint64 `json:"bus_bytes"`
}

func summaryOf(o *core.Outcome) summary {
	c := &o.Counters
	return summary{
		Refs:            o.Refs,
		Cycles:          c.Cycles,
		OSCycles:        c.OSTime(),
		DReads:          c.TotalDReads(),
		DReadMisses:     c.TotalDReadMisses(),
		OSReadMisses:    c.OSDReadMisses(),
		BusTransactions: c.Bus.TotalTransactions(),
		BusBytes:        c.Bus.TotalBytes(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
