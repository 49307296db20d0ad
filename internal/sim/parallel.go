package sim

// Intra-run parallel execution: one simulation advances several
// processors concurrently through bounded time windows, with results
// byte-identical to the serial engine.
//
// The serial engine's correctness rests on global-time ordering: every
// bus/port reservation, snoop, directory update and write-buffer drain
// happens in (time, cpu-id) order. Running processors concurrently is
// therefore only sound for a window provably free of those
// interactions. The engine builds that proof *before* executing — a
// read-only pre-scan of each processor's upcoming references and queued
// writes — rather than detecting conflicts afterwards, which would
// require rolling the machine back. A reference is window-local when:
//
//   - a data read or instruction fetch hits the processor's own
//     secondary cache (line resident in any valid state), so no fill,
//     no bus/port transaction, no victim;
//   - a data write targets a line the processor's own L2 holds
//     Modified or Exclusive, so the write-through machinery absorbs it
//     locally (the MESI invariant says no remote copies exist, and no
//     remote processor can gain one inside the window — its fill would
//     be a miss, which the scan treats as ineligible);
//   - it carries no synchronization, block-operation, prefetch or DMA
//     semantics.
//
// The scan does not require every upcoming reference to be local —
// that would restrict parallelism to fully miss-free epochs. Instead
// it *truncates* the horizon: each eligible reference advances its
// processor's clock by at least one cycle, so a processor whose k-th
// upcoming reference is the first ineligible one cannot execute it
// before t0+k-1. The window horizon is the minimum of those bounds
// (capped at intraWindowCycles past the earliest runnable clock), and
// every ineligible reference — a miss, a lock, a barrier, a block
// operation — lands at or beyond it, where the serial engine takes
// over. Queued write-buffer entries are proven absorbable the same way
// (own L2 line Modified/Exclusive, line-wide L2-to-bus buffer empty),
// machine-wide, because processors drain inside windows regardless of
// whether they step.
//
// Under those conditions a processor's window work touches only its
// own caches, write buffers and shadow maps, execution is
// embarrassingly parallel, and the outcome of every action — including
// write-buffer pops, whose service start max(engine-free, ready) is
// horizon-independent — is exactly what the serial engine produces.
// Counters are commutative sums, accumulated into a per-worker shadow
// record and merged at commit; ends of trace and the scheduler heap
// are reconciled at commit as well.
//
// A window that cannot make progress (the earliest runnable processor
// sits on an ineligible reference, queued writes need the bus, or the
// provable stretch is too small to pay for the fork/join) runs on the
// unmodified serial engine over a short horizon. A failed plan costs
// one cache Peek per scanned reference; a deterministic exponential
// backoff (doubling to intraBackoffMax windows) keeps that overhead
// negligible through long conflicted phases without ever perturbing
// results.

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"oscachesim/internal/cache"
	"oscachesim/internal/coherence"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

const (
	// intraWindowCycles caps the epoch length: larger windows amortize
	// the pre-scan and fork/join overhead, but a window is only as long
	// as its shortest proven-local stretch, so the cap mostly bounds
	// lookahead memory (≤ one ref per cycle per processor).
	intraWindowCycles = 4096
	// intraSerialCycles is the serial-fallback horizon. Short on
	// purpose: one miss serializes only the machine's immediate
	// neighborhood, not a whole epoch, before the planner retries.
	intraSerialCycles = 256
	// intraMinWindowRefs is the smallest provable window worth forking
	// workers for; below it the serial engine wins on overhead.
	intraMinWindowRefs = 192
	// intraBackoffMax caps the serial-window backoff after failed plans.
	intraBackoffMax = 2
	// intraScanChunk is the round size of the horizon-refinement scan:
	// processors are scanned a chunk at a time so one processor's long
	// eligible run is not scanned past a horizon another's early miss
	// already truncated.
	intraScanChunk = 64
)

// intraEligible reports whether this run uses the parallel engine.
// Observers and the conflict census want the serial engine's exact
// event interleaving, so they force serial execution.
func (s *Simulator) intraEligible() bool {
	return s.p.IntraWorkers > 1 && s.obs == nil && s.conflicts == nil && len(s.cpus) >= 2
}

// lookahead extends a processor's trace cursor so the pre-scan can
// inspect a window's work before any of it executes. fill copies the
// unconsumed rest of the processor's current chunk, plus as many
// further chunks as the scan needs, into storage the lookahead owns and
// points the processor's buffer at it. The serial step loop and the
// window workers then consume that one buffer, so no reference is ever
// lost or reordered between the two engines — and because every chunk
// is copied before the next NextChunk call, a source that recycles its
// previous chunk on that call (trace.ChunkSource) stays safe.
type lookahead struct {
	refs []trace.Ref
	eof  bool
}

// fill ensures up to n unconsumed references are buffered in c.buf
// from c.pos on and returns how many are available — fewer than n only
// at end of stream.
func (b *lookahead) fill(c *cpuState, n int) int {
	if len(c.buf)-c.pos >= n || b.eof {
		return len(c.buf) - c.pos
	}
	b.refs = append(b.refs[:0], c.buf[c.pos:]...)
	for len(b.refs) < n {
		chunk, ok := c.src.NextChunk()
		if !ok {
			b.eof = true
			break
		}
		b.refs = append(b.refs, chunk...)
	}
	c.buf, c.pos = b.refs, 0
	return len(c.buf)
}

// intraScan is one processor's record in a window plan.
type intraScan struct {
	id int32
	t0 uint64
	// elig counts leading references proven window-local; closed marks
	// that the scan hit an ineligible reference (bounding the horizon
	// at t0+elig) or the end of the trace.
	elig   int
	closed bool
}

// intraRunner is the per-run state of the parallel engine.
type intraRunner struct {
	s *Simulator
	// las are the per-processor lookahead buffers.
	las []*lookahead
	// clones are per-processor shallow Simulator copies: workers write
	// counters into their clone's private stats record (and drain-mask
	// bits into a private mask), sharing everything else read-only.
	clones []*Simulator
	masks  [][]uint64
	// Window-plan scratch: scans holds the horizon-refinement state;
	// exec/execElig name this window's stepping processors and their
	// proven reference counts; drain names processors that only retire
	// queued write buffers; inExec indexes exec membership by id.
	scans    []intraScan
	exec     []int32
	execElig []int
	drain    []int32
	inExec   []bool
	// backoff/serialLeft implement the deterministic failed-plan
	// backoff.
	backoff    int
	serialLeft int

	// windows / parallelWindows / parallelRefs expose how much of the
	// run the planner managed to parallelize.
	windows         uint64
	parallelWindows uint64
	parallelRefs    uint64
}

// runParallel is the window-dispatch loop: plan a window past the
// earliest runnable clock, run it on worker goroutines if the plan
// proves enough local work, on the serial engine otherwise.
func (s *Simulator) runParallel(ctx context.Context) (*Result, error) {
	r := &intraRunner{
		s:       s,
		las:     make([]*lookahead, len(s.cpus)),
		clones:  make([]*Simulator, len(s.cpus)),
		masks:   make([][]uint64, len(s.cpus)),
		inExec:  make([]bool, len(s.cpus)),
		backoff: 1,
	}
	for i := range s.cpus {
		r.las[i] = &lookahead{}
	}
	for {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("sim: canceled after %d refs: %w", s.refs, context.Cause(ctx))
		default:
		}
		if len(s.runq) == 0 {
			if s.allDone() {
				break
			}
			return nil, s.deadlockError()
		}
		T := s.schedNext().time
		r.windows++
		if !r.tryParallelWindow(T) {
			if err := s.runSerialWindow(T + intraSerialCycles); err != nil {
				return nil, err
			}
		}
		if s.p.Progress != nil {
			s.p.Progress.sample(s.refs, s.c.DReadMisses[trace.KindOS], T)
		}
	}
	s.finish()
	if s.p.Progress != nil {
		s.p.Progress.markDone(s.refs, s.c.DReadMisses[trace.KindOS], s.c.Cycles)
	}
	s.intraStats = intraStats{
		Windows:         r.windows,
		ParallelWindows: r.parallelWindows,
		ParallelRefs:    r.parallelRefs,
	}
	return s.result(), nil
}

// runSerialWindow advances the unmodified serial engine until every
// runnable processor's clock reaches the horizon (or the run ends).
func (s *Simulator) runSerialWindow(horizon uint64) error {
	for len(s.runq) > 0 {
		c := s.schedNext()
		if c.time >= horizon {
			return nil
		}
		if s.p.MaxRefs != 0 && s.refs >= s.p.MaxRefs {
			return fmt.Errorf("sim: exceeded MaxRefs=%d", s.p.MaxRefs)
		}
		s.step(c)
		s.runqFixAfterStep(c)
	}
	return nil
}

// tryParallelWindow plans and runs one parallel window, unless the
// backoff suppresses the attempt or the plan proves too little work.
// It reports whether the window was handled (false = the caller runs a
// serial window).
func (r *intraRunner) tryParallelWindow(T uint64) bool {
	if r.serialLeft > 0 {
		r.serialLeft--
		return false
	}
	horizon, ok := r.planWindow(T)
	if !ok {
		r.serialLeft = r.backoff
		if r.backoff < intraBackoffMax {
			r.backoff *= 2
		}
		return false
	}
	r.backoff = 1
	r.runWindow(horizon)
	return true
}

// eligibleRef reports whether one reference is provably window-local
// for processor c in c's current cache state (which only c's own
// activity can change inside a window, so the check stays valid until
// the horizon).
func (r *intraRunner) eligibleRef(c *cpuState, rf *trace.Ref) bool {
	if rf.Sync != trace.SyncNone || rf.Block != 0 {
		return false
	}
	switch rf.Op {
	case trace.OpInstr, trace.OpRead:
		return c.l2.State(rf.Addr).Valid()
	case trace.OpWrite:
		st := c.l2.State(rf.Addr)
		return st == coherence.Modified || st == coherence.Exclusive
	default:
		return false
	}
}

// planWindow computes the largest provably-safe horizon past T and the
// window's participants. It is read-only: cache state via Peek-based
// State (no LRU touch), references via the lookahead buffers.
func (r *intraRunner) planWindow(T uint64) (uint64, bool) {
	s := r.s
	horizon := T + intraWindowCycles

	// Queued writes, machine-wide: every entry must be absorbable by
	// the owning processor's L2 (line Modified/Exclusive) and the
	// line-wide L2-to-bus buffer empty — otherwise a drain (or a forced
	// pop under write-buffer overflow, which ignores horizons) could
	// arbitrate for a bus or port mid-window.
	for w, m := range s.drainMask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << b
			o := s.cpus[w*64+b]
			if o.l2wb.Len() > 0 {
				return 0, false
			}
			absorbable := true
			o.l1wb.ForEach(func(e cache.WriteBufferEntry) {
				st := o.l2.State(e.Addr)
				if st != coherence.Modified && st != coherence.Exclusive {
					absorbable = false
				}
			})
			if !absorbable {
				return 0, false
			}
		}
	}

	// Collect the candidate stepping processors and the hard horizon
	// bounds: a processor mid-block-operation or with outstanding
	// prefetches cannot step in a parallel window at all, so the window
	// must end before its clock.
	r.scans = r.scans[:0]
	for _, id := range s.runq {
		c := s.cpus[id]
		if c.time >= horizon {
			continue
		}
		if c.curBlock != 0 || len(c.pending) > 0 {
			if c.time < horizon {
				horizon = c.time
			}
			continue
		}
		r.scans = append(r.scans, intraScan{id: id, t0: c.time})
	}
	if horizon <= T {
		return 0, false
	}

	// Horizon refinement: scan each candidate's upcoming references a
	// chunk at a time. The first ineligible reference of a processor
	// whose scan started at t0 cannot execute before t0+elig (each
	// eligible reference ahead of it costs at least one cycle), so it
	// truncates the horizon there. Rounds continue until every scan is
	// closed or proven to cover the current horizon; chunking keeps one
	// processor's long eligible run from being scanned past a horizon
	// another's early miss already truncated.
	for {
		progress := false
		for i := range r.scans {
			sc := &r.scans[i]
			if sc.closed || sc.t0+uint64(sc.elig) >= horizon {
				continue
			}
			limit := sc.elig + intraScanChunk
			if want := int(horizon - sc.t0); limit > want {
				limit = want
			}
			la, c := r.las[sc.id], s.cpus[sc.id]
			avail := la.fill(c, limit)
			if avail > limit {
				avail = limit
			}
			for sc.elig < avail {
				if !r.eligibleRef(c, &c.buf[c.pos+sc.elig]) {
					sc.closed = true
					if bound := sc.t0 + uint64(sc.elig); bound < horizon {
						horizon = bound
					}
					break
				}
				sc.elig++
			}
			if !sc.closed && la.eof && sc.elig == len(c.buf)-c.pos {
				// End of trace: nothing beyond to bound the horizon.
				sc.closed = true
			}
			if !sc.closed && sc.t0+uint64(sc.elig) < horizon {
				progress = true
			}
		}
		if horizon <= T {
			return 0, false
		}
		if !progress {
			break
		}
	}

	// Participants and volume: enough provable work must remain inside
	// the final horizon to pay for the fork/join.
	r.exec = r.exec[:0]
	r.execElig = r.execElig[:0]
	var total uint64
	for i := range r.scans {
		sc := &r.scans[i]
		if sc.t0 >= horizon {
			continue
		}
		n := uint64(sc.elig)
		if m := horizon - sc.t0; n > m {
			n = m
		}
		r.exec = append(r.exec, sc.id)
		r.execElig = append(r.execElig, int(n))
		total += n
	}
	if len(r.exec) < 2 || total < intraMinWindowRefs {
		return 0, false
	}
	// Near the reference cap the serial engine must deliver its exact
	// per-reference error; stay out of its way.
	if s.p.MaxRefs != 0 && s.refs+total > s.p.MaxRefs {
		return 0, false
	}

	// Drain-only participants: processors outside the stepping set
	// (done, blocked, or at/after the horizon) whose queued writes the
	// serial engine would retire inside the window.
	for _, id := range r.exec {
		r.inExec[id] = true
	}
	r.drain = r.drain[:0]
	for w, m := range s.drainMask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << b
			o := s.cpus[w*64+b]
			if (o.l1wb.Len() > 0 || o.l2wb.Len() > 0) && !r.inExec[o.id] {
				r.drain = append(r.drain, int32(o.id))
			}
		}
	}
	for _, id := range r.exec {
		r.inExec[id] = false
	}
	return horizon, true
}

// runWindow executes a planned window: stepping processors run on
// worker goroutines (each against a private Simulator clone for its
// counters), drain-only processors retire their buffered writes, and
// the coordinator merges counters and rebuilds the scheduler.
func (r *intraRunner) runWindow(horizon uint64) {
	s := r.s
	for _, id := range r.exec {
		w := r.clones[id]
		if w == nil {
			w = new(Simulator)
			r.clones[id] = w
			r.masks[id] = make([]uint64, len(s.drainMask))
		}
		// Shallow copy: cpus/ports/locks and Params are shared
		// read-only; the stats record is a value field, so zeroing it
		// gives the worker a private accumulator. The private drain
		// mask absorbs the bit writeAccess sets on buffered writes.
		*w = *s
		w.c = stats.Counters{}
		w.refs = 0
		w.drainMask = r.masks[id]
	}
	workers := s.p.IntraWorkers
	if t := len(r.exec) + len(r.drain); workers > t {
		workers = t
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(r.exec); i += workers {
				r.execWindow(i, horizon)
			}
			for i := g; i < len(r.drain); i += workers {
				o := s.cpus[r.drain[i]]
				// Reads only shared-immutable Simulator state; all
				// mutations stay within processor o.
				s.advanceDrainsUntil(o, horizon)
			}
		}(g)
	}
	wg.Wait()

	r.parallelWindows++
	for _, id := range r.exec {
		w := r.clones[id]
		s.c.Accumulate(&w.c)
		s.refs += w.refs
		r.parallelRefs += w.refs
	}
	for _, id := range r.exec {
		r.refreshDrainBit(int(id))
	}
	for _, id := range r.drain {
		r.refreshDrainBit(int(id))
	}
	s.runqRebuild()
}

// execWindow advances one stepping processor to the horizon on its
// clone, mirroring the serial step loop over the proven-local
// reference prefix: consume, execute, stop at the horizon or the end
// of the proven prefix, mark end of trace (the block-operation
// epilogue is a no-op — eligibility required none in progress), then
// drain to the horizon.
func (r *intraRunner) execWindow(idx int, horizon uint64) {
	s := r.s
	id := r.exec[idx]
	limit := r.execElig[idx]
	w := r.clones[id]
	c := s.cpus[id]
	end := c.pos + limit
	for c.time < horizon && c.pos < end {
		rf := c.buf[c.pos]
		c.pos++
		w.refs++
		c.refs++
		w.exec(c, rf)
	}
	if c.time < horizon && c.pos == len(c.buf) && r.las[id].eof {
		c.done = true
	}
	w.advanceDrainsUntil(c, horizon)
}

// refreshDrainBit recomputes one processor's bit in the shared drain
// mask from its buffer state after a window commit.
func (r *intraRunner) refreshDrainBit(id int) {
	o := r.s.cpus[id]
	w, b := id>>6, uint(id)&63
	if o.l1wb.Len() > 0 || o.l2wb.Len() > 0 {
		r.s.drainMask[w] |= 1 << b
	} else {
		r.s.drainMask[w] &^= 1 << b
	}
}

// intraStats summarizes how much of a run the parallel engine handled.
type intraStats struct {
	Windows         uint64
	ParallelWindows uint64
	ParallelRefs    uint64
}

// IntraStats reports the parallel engine's window census for the last
// Run (zero for serial runs) — test and tooling introspection.
func (s *Simulator) IntraStats() (windows, parallelWindows, parallelRefs uint64) {
	return s.intraStats.Windows, s.intraStats.ParallelWindows, s.intraStats.ParallelRefs
}
