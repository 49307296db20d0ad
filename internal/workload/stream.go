package workload

import (
	"fmt"
	"time"

	"oscachesim/internal/kernel"
	"oscachesim/internal/trace"
)

// Streaming workload generation, the way every simulation run gets its
// trace. Stream runs the generator's round loop (drive) on a producer
// goroutine and hands its fixed-size pooled chunks to a
// trace.ChunkPipeline as they fill. The simulator consumes the
// pipeline's per-CPU ChunkSources concurrently, so generation overlaps
// simulation and peak trace memory is O(NumCPUs × budget) instead of
// O(scale). Build runs the same loop synchronously and appends the
// chunks into one in-memory trace per CPU, so both produce
// byte-identical reference sequences.

// DefaultChunkRefs is the per-chunk reference count when StreamOptions
// does not choose. At the default profile rates one chunk is roughly
// one scheduling round per CPU.
const DefaultChunkRefs = 1 << 13

// StreamOptions tunes the streaming pipeline. The zero value is ready
// to use.
type StreamOptions struct {
	// NumCPUs is the processor count to trace (0 = NumCPUs, the
	// paper's 4). Must not exceed MaxCPUs; see BuildN.
	NumCPUs int
	// ChunkRefs is the flush granularity per CPU (0 = DefaultChunkRefs).
	ChunkRefs int
	// BudgetRefs is the per-CPU soft cap on references queued in the
	// pipeline (0 = 4 × ChunkRefs). See trace.ChunkPipeline for the
	// soft-budget semantics.
	BudgetRefs int
	// OnProgress, when set, is called once per generated round with the
	// references sent so far and a projected total (estimated from the
	// first round; 0 until then). Called from the producer goroutine.
	OnProgress func(generated, projectedTotal uint64)
	// OnStalls, when set, is called once per generated round with the
	// pipeline's cumulative producer-stall count — the number of times
	// generation blocked on a full queue so far. Called from the
	// producer goroutine.
	OnStalls func(stalls uint64)
}

// Streamed is an in-flight streaming workload build: the producer
// goroutine generating the trace plus the pipeline the simulator
// consumes. Exactly one simulation may consume a Streamed, and the
// consumer must finish with either Wait (after draining the sources)
// or Abort (after an error) — both are required for goroutine and pool
// hygiene.
type Streamed struct {
	Name   Name
	Kernel *kernel.Kernel

	n       int
	pipe    *trace.ChunkPipeline
	done    chan struct{}
	err     error
	started time.Time
	elapsed time.Duration // producer wall time; written before done closes
}

// Stream starts generating a workload trace on a producer goroutine,
// deterministically from the seed — the same (name, opt, scale, seed)
// produces the same per-CPU reference sequences as Build.
func Stream(name Name, opt kernel.OptConfig, scale int, seed int64, sopt StreamOptions) *Streamed {
	if scale <= 0 {
		scale = DefaultScale
	}
	ncpus := sopt.NumCPUs
	if ncpus == 0 {
		ncpus = NumCPUs
	}
	if ncpus < 1 || ncpus > MaxCPUs {
		panic(fmt.Sprintf("workload: Stream with %d CPUs (want 1..%d)", ncpus, MaxCPUs))
	}
	st := newStreamed(name, kernel.New(opt), ncpus, sopt)
	chunk := chunkSize(sopt)
	go st.pump(chunk, sopt, func() (*generator, int, func(int)) {
		g := newGenerator(ProfileFor(st.Name), st.Kernel, seed, st.n)
		return g, scale, g.round
	})
	return st
}

// newStreamed assembles the pipeline state shared by Stream and
// StreamSpec.
func newStreamed(name Name, k *kernel.Kernel, ncpus int, sopt StreamOptions) *Streamed {
	budget := sopt.BudgetRefs
	if budget <= 0 {
		budget = 4 * chunkSize(sopt)
	}
	return &Streamed{
		Name:    name,
		Kernel:  k,
		n:       ncpus,
		pipe:    trace.NewChunkPipeline(ncpus, budget),
		done:    make(chan struct{}),
		started: time.Now(),
	}
}

// chunkSize resolves the flush granularity.
func chunkSize(sopt StreamOptions) int {
	if sopt.ChunkRefs > 0 {
		return sopt.ChunkRefs
	}
	return DefaultChunkRefs
}

// pump runs the generator round loop (drive) on the producer
// goroutine, flushing chunks into the pipeline. mk builds the
// generator and returns the round count and per-round function — the
// classic profile loop and the scenario loop differ only there. pump always
// closes the pipeline and the done channel, even on panic, so
// consumers never hang on a dead producer.
func (st *Streamed) pump(chunk int, sopt StreamOptions, mk func() (*generator, int, func(int))) {
	defer close(st.done)
	defer func() { st.elapsed = time.Since(st.started) }()
	defer st.pipe.Close()
	defer func() {
		if r := recover(); r != nil {
			st.err = fmt.Errorf("workload: stream producer panicked: %v", r)
		}
	}()

	g, rounds, roundFn := mk()
	aborted := false
	flush := func(cpu int, refs []trace.Ref) []trace.Ref {
		if aborted {
			return refs[:0]
		}
		if !st.pipe.Send(cpu, refs) {
			// Consumer aborted: discard in place and keep reusing this
			// one buffer so the rest of the round generates into it
			// without queueing anywhere.
			aborted = true
			return refs[:0]
		}
		return trace.GetBatch(chunk)
	}
	var projected uint64
	g.drive(rounds, roundFn, chunk, flush, func(round int) bool {
		if aborted {
			return false
		}
		if round == 0 {
			// Rounds are statistically alike; the first one projects
			// the total for progress reporting.
			projected = st.pipe.Sent() * uint64(rounds)
		}
		if sopt.OnProgress != nil {
			sopt.OnProgress(st.pipe.Sent(), projected)
		}
		if sopt.OnStalls != nil {
			n, _ := st.pipe.Stalls()
			sopt.OnStalls(n)
		}
		return true
	})
}

// Sources returns the per-CPU consumer endpoints. Unlike
// Built.Sources, the stream is single-use: call Sources once and drive
// every source to exhaustion (or Abort).
func (st *Streamed) Sources() []trace.Source {
	srcs := make([]trace.Source, st.n)
	for c := range srcs {
		srcs[c] = st.pipe.Source(c)
	}
	return srcs
}

// Wait blocks until the producer goroutine has finished and returns
// its error, if any. Call it after the simulation has drained the
// sources; the Kernel's deferred-copy counters are stable only after
// Wait returns.
func (st *Streamed) Wait() error {
	<-st.done
	return st.err
}

// Abort tears the stream down early: the producer is released (it
// stops generating at the next flush), queued chunks return to the
// trace pool, and Abort blocks until the producer goroutine has
// exited. Safe to call only once the simulation consuming the sources
// has returned.
func (st *Streamed) Abort() {
	st.pipe.Abort()
	<-st.done
}

// TotalRefs returns the number of references generated so far; after
// Wait it is the total trace length.
func (st *Streamed) TotalRefs() uint64 { return st.pipe.Sent() }

// PeakPendingRefs reports the pipeline's high-water mark of resident
// references — the streaming memory ceiling, which stays O(budget)
// regardless of scale.
func (st *Streamed) PeakPendingRefs() int { return st.pipe.PeakPendingRefs() }

// GenStalls reports how many times the producer blocked on a full
// pipeline queue and the total wall time it spent blocked. Stable
// after Wait or Abort.
func (st *Streamed) GenStalls() (uint64, time.Duration) { return st.pipe.Stalls() }

// Elapsed returns the producer goroutine's wall time, from Stream to
// the pipeline closing. Valid only after Wait or Abort returns.
func (st *Streamed) Elapsed() time.Duration { return st.elapsed }
