package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"oscachesim/internal/bus"
	"oscachesim/internal/coherence"
	"oscachesim/internal/memory"
	"oscachesim/internal/stats"
	"oscachesim/internal/trace"
)

// Simulator co-simulates NumCPUs processors over their trace sources.
// Processors advance in global-time order (the runnable processor with
// the smallest local clock executes its next reference), which keeps
// bus arbitration and coherence interactions causally ordered.
type Simulator struct {
	p    Params
	cpus []*cpuState
	bus  *bus.Bus
	c    stats.Counters

	// Directory coherence (Params.Coherence == CoherenceDirectory):
	// memory lines are interleaved across per-processor home nodes,
	// each with its own port timeline instead of the shared bus, and
	// dir holds the full-map directory entries of cached lines.
	home  memory.HomeMap
	ports []*bus.Bus
	dir   map[uint64]coherence.DirEntry

	locks    map[uint32]*lockState
	barriers map[uint32]*barrierState

	// obs, when non-nil, receives the event stream of observe.go.
	obs Observer

	// conflicts counts L1D evictions by (evictor, victim) region pair
	// when Params.RegionNamer is set.
	conflicts map[ConflictPair]uint64

	// tree is a winner (tournament) tree over the processors'
	// scheduling keys (see idBits). Its leaves tree[len(tree)/2+id] are
	// the dense per-processor key array, padded to a power of two with
	// idle; each internal node tree[k] holds the smaller of tree[2k]
	// and tree[2k+1], so tree[1] is the key of the next processor to
	// run: smallest clock first, ties to the lowest id.
	tree []uint64
	// woken collects the processors a step's lock grant or barrier
	// release made runnable; their keys are refreshed after the step,
	// once the grant's own access has advanced their clocks.
	woken []*cpuState

	// drainMask has one bit per processor, set while that processor has
	// a nonempty write buffer. step probes only flagged processors (in
	// ascending id order, matching the old full scan) instead of all N.
	drainMask []uint64

	refs uint64
}

// ConflictPair names the two data structures involved in a
// primary-cache eviction.
type ConflictPair struct {
	// Evictor is the region whose fill displaced the victim.
	Evictor string
	// Victim is the region of the displaced line.
	Victim string
}

// lockState re-enforces the mutual exclusion annotated in the trace.
type lockState struct {
	held    bool
	owner   int
	waiters []waiter
}

type waiter struct {
	cpu     int
	arrived uint64
	ref     trace.Ref
}

// barrierState collects arrivals until all participants are present.
type barrierState struct {
	need    int
	arrived []waiter
}

// Result is the outcome of one simulation run.
type Result struct {
	// Counters is the full measurement record.
	Counters stats.Counters
	// CPUTime is each processor's final local clock.
	CPUTime []uint64
	// Refs is the number of trace references processed.
	Refs uint64
	// Conflicts is the (evictor, victim) eviction census, populated
	// only when Params.RegionNamer was set.
	Conflicts map[ConflictPair]uint64
}

// ErrDeadlock reports that every unfinished processor was blocked on a
// lock or barrier — a malformed trace.
var ErrDeadlock = errors.New("sim: deadlock: all unfinished processors blocked")

// New builds a simulator over one source per processor. Sources that
// hand out chunks (trace.Chunker) are read in place; any other Source
// is wrapped once in trace.Chunked's small buffering adapter, so the
// step loop has one code path.
func New(p Params, sources []trace.Source) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != p.NumCPUs {
		return nil, fmt.Errorf("sim: %d sources for %d CPUs", len(sources), p.NumCPUs)
	}
	s := &Simulator{
		p:        p,
		bus:      bus.New(p.Bus),
		locks:    make(map[uint32]*lockState),
		barriers: make(map[uint32]*barrierState),
	}
	if p.Coherence == CoherenceDirectory {
		s.home = memory.NewHomeMap(p.NumCPUs, p.L2.LineSize)
		s.ports = make([]*bus.Bus, p.NumCPUs)
		for i := range s.ports {
			s.ports[i] = bus.New(p.Bus)
		}
		s.dir = make(map[uint64]coherence.DirEntry)
	}
	if p.RegionNamer != nil {
		s.conflicts = make(map[ConflictPair]uint64)
	}
	for i, src := range sources {
		s.cpus = append(s.cpus, newCPU(i, p, src))
	}
	s.tree = newTree(p.NumCPUs)
	s.woken = make([]*cpuState, 0, p.NumCPUs)
	for _, c := range s.cpus {
		s.reschedule(c)
	}
	s.drainMask = make([]uint64, (p.NumCPUs+63)/64)
	return s, nil
}

// Run simulates to trace exhaustion and returns the measurements.
// Cancellation of ctx aborts the run between references (checked every
// ctxCheckStride steps, so an abort costs at most a few microseconds of
// extra simulation); the error then wraps context.Cause(ctx).
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	for n := uint64(0); ; n++ {
		if n&(ctxCheckStride-1) == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("sim: canceled after %d refs: %w", s.refs, context.Cause(ctx))
			default:
			}
		}
		next := s.tree[1]
		if next == idle {
			if s.allDone() {
				break
			}
			return nil, s.deadlockError()
		}
		c := s.cpus[next&idMask]
		if c.time > maxClock {
			return nil, fmt.Errorf("sim: cpu%d's clock passed %d cycles", c.id, uint64(maxClock))
		}
		if s.p.MaxRefs != 0 && s.refs >= s.p.MaxRefs {
			return nil, fmt.Errorf("sim: exceeded MaxRefs=%d", s.p.MaxRefs)
		}
		s.step(c)
		s.reschedule(c)
		for _, wc := range s.woken {
			s.reschedule(wc)
		}
		s.woken = s.woken[:0]
		if s.p.Progress != nil && n&(progressStride-1) == 0 {
			s.p.Progress.sample(s.refs, s.c.DReadMisses[trace.KindOS], c.time)
		}
	}
	s.finish()
	if s.p.Progress != nil {
		s.p.Progress.markDone(s.refs, s.c.DReadMisses[trace.KindOS], s.c.Cycles)
	}
	return s.result(), nil
}

// result assembles the Result record after finish().
func (s *Simulator) result() *Result {
	res := &Result{
		Counters:  s.c,
		Refs:      s.refs,
		Conflicts: s.conflicts,
		CPUTime:   make([]uint64, 0, len(s.cpus)),
	}
	for _, c := range s.cpus {
		res.CPUTime = append(res.CPUTime, c.time)
	}
	return res
}

// ctxCheckStride and progressStride must be powers of two; they bound
// the per-reference cost of cancellation checks and progress sampling.
const (
	ctxCheckStride = 1024
	progressStride = 256
)

// A scheduling key packs a runnable processor's local clock above its
// id, so one unsigned compare orders by clock and breaks ties toward
// the lowest id. Clocks saturate at maxClock, which keeps every
// runnable key below idle, the key of a processor that is done or
// blocked and of the tree's padding.
const (
	idBits   = 8
	idMask   = 1<<idBits - 1
	maxClock = 1<<(64-idBits) - 2
	idle     = ^uint64(0)
)

// Every processor id must fit in idBits.
var _ [1<<idBits - MaxDirectoryCPUs]struct{}

// newTree returns an all-idle winner tree with a leaf for each of n
// processors.
func newTree(n int) []uint64 {
	tree := make([]uint64, 2<<bits.Len(uint(n-1)))
	for i := range tree {
		tree[i] = idle
	}
	return tree
}

// reschedule stores c's key in its leaf and replays the leaf-to-root
// path of the winner tree.
func (s *Simulator) reschedule(c *cpuState) {
	k := min(c.time, maxClock)<<idBits | uint64(c.id)
	if c.done || c.blocked {
		k = idle
	}
	n := len(s.tree)/2 + c.id
	s.tree[n] = k
	for ; n > 1; n >>= 1 {
		k = min(k, s.tree[n^1])
		s.tree[n>>1] = k
	}
}

func (s *Simulator) allDone() bool {
	for _, c := range s.cpus {
		if !c.done {
			return false
		}
	}
	return true
}

func (s *Simulator) deadlockError() error {
	msg := ErrDeadlock.Error()
	for _, id := range sortedIDs(s.locks) {
		if l := s.locks[id]; l.held {
			msg += fmt.Sprintf("; lock %d held by cpu%d with %d waiters", id, l.owner, len(l.waiters))
		}
	}
	for _, id := range sortedIDs(s.barriers) {
		if b := s.barriers[id]; len(b.arrived) > 0 {
			msg += fmt.Sprintf("; barrier %d has %d/%d arrivals", id, len(b.arrived), b.need)
		}
	}
	return fmt.Errorf("%s", msg)
}

// sortedIDs returns m's keys in ascending order, so error messages do
// not depend on map iteration order.
func sortedIDs[V any](m map[uint32]V) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// step executes one trace reference on processor c. Before the
// reference runs, every processor's write buffers drain up to the
// current global time, so remote stores become visible (and
// invalidate) on schedule even when their issuer has gone idle.
func (s *Simulator) step(c *cpuState) {
	// Only processors with buffered writes need probing; the bitmask
	// walk visits them in ascending id, the order the old full scan
	// used (drain order is observable through bus arbitration).
	for w, m := range s.drainMask {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &^= 1 << b
			o := s.cpus[w*64+b]
			s.advanceDrainsUntil(o, c.time)
			if o.l1wb.Len() == 0 && o.l2wb.Len() == 0 {
				s.drainMask[w] &^= 1 << b
			}
		}
	}
	if c.pos == len(c.buf) && !c.refill() {
		c.done = true
		s.finishBlock(c)
		return
	}
	r := c.buf[c.pos]
	c.pos++
	s.refs++
	c.refs++
	if s.obs != nil {
		s.emit(Event{Kind: EvRef, CPU: c.id, Addr: r.Addr, Ref: r})
	}
	s.exec(c, r)
}

// exec dispatches one reference.
func (s *Simulator) exec(c *cpuState, r trace.Ref) {
	if r.Block != c.curBlock {
		s.finishBlock(c)
		s.startBlock(c, r)
	}
	mode := modeOf(r.Kind)
	switch r.Op {
	case trace.OpInstr:
		s.instrFetch(c, r, mode)
	case trace.OpRead:
		s.c.DReads[mode]++
		s.readAccess(c, r, mode)
	case trace.OpWrite:
		switch r.Sync {
		case trace.SyncLockAcquire:
			s.lockAcquire(c, r, mode)
			return // the access happens at grant time
		case trace.SyncLockRelease:
			s.c.DWrites[mode]++
			s.writeAccess(c, r, mode)
			s.lockRelease(c, r)
		case trace.SyncBarrier:
			s.c.DWrites[mode]++
			s.writeAccess(c, r, mode)
			s.barrierArrive(c, r, mode)
		default:
			s.c.DWrites[mode]++
			s.writeAccess(c, r, mode)
		}
	case trace.OpPrefetch:
		s.prefetchAccess(c, r, mode)
	case trace.OpBlockDMA:
		s.dmaAccess(c, r, mode)
	}
}

// --- Synchronization -------------------------------------------------

// lockAcquire performs a test&set on the lock word. If the lock is
// held the processor blocks; the write (and its coherence traffic)
// happens when the lock is granted.
func (s *Simulator) lockAcquire(c *cpuState, r trace.Ref, mode int) {
	l := s.locks[r.SyncID]
	if l == nil {
		l = &lockState{}
		s.locks[r.SyncID] = l
	}
	if !l.held {
		l.held = true
		l.owner = c.id
		s.c.DWrites[mode]++
		s.writeAccess(c, r, mode)
		return
	}
	l.waiters = append(l.waiters, waiter{cpu: c.id, arrived: c.time, ref: r})
	c.blocked = true
}

// lockRelease frees the lock or hands it to the first waiter.
func (s *Simulator) lockRelease(c *cpuState, r trace.Ref) {
	l := s.locks[r.SyncID]
	if l == nil || !l.held || l.owner != c.id {
		// A release without a matching acquire is tolerated (the
		// trace may start mid-critical-section); treat as a plain
		// write, which writeAccess already performed.
		return
	}
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	// Pop the head by shifting in place, so the waiter array's capacity
	// is reused instead of re-sliced away (re-slicing forces append to
	// allocate a fresh array on every acquire/release cycle).
	w := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	l.owner = w.cpu
	wc := s.cpus[w.cpu]
	grant := max(c.time, w.arrived) + s.p.SyncGrantCycles
	wmode := modeOf(w.ref.Kind)
	s.c.Time[wmode].Sync += grant - w.arrived
	wc.time = grant
	wc.blocked = false
	s.woken = append(s.woken, wc)
	// The successful test&set happens now, with its coherence
	// traffic (it invalidates the releaser's copy of the lock word,
	// seeding the next coherence miss on the lock).
	s.c.DWrites[wmode]++
	s.writeAccess(wc, w.ref, wmode)
}

// barrierArrive blocks the processor until all participants arrive.
func (s *Simulator) barrierArrive(c *cpuState, r trace.Ref, mode int) {
	need := int(r.Len)
	if need <= 0 {
		need = s.p.NumCPUs
	}
	b := s.barriers[r.SyncID]
	if b == nil {
		b = &barrierState{need: need}
		s.barriers[r.SyncID] = b
	}
	b.arrived = append(b.arrived, waiter{cpu: c.id, arrived: c.time, ref: r})
	if len(b.arrived) < b.need {
		c.blocked = true
		return
	}
	// Last arrival releases everyone, including itself.
	release := c.time + s.p.SyncGrantCycles
	for _, w := range b.arrived {
		wc := s.cpus[w.cpu]
		wmode := modeOf(w.ref.Kind)
		s.c.Time[wmode].Sync += release - w.arrived
		wc.time = release
		wc.blocked = false
		if wc != c {
			// c is rescheduled after its step anyway.
			s.woken = append(s.woken, wc)
		}
	}
	delete(s.barriers, r.SyncID)
}

// finish drains all write buffers so their traffic is accounted for.
func (s *Simulator) finish() {
	for _, c := range s.cpus {
		s.finishBlock(c)
		for c.l1wb.Len() > 0 || c.l2wb.Len() > 0 {
			s.forceDrainStep(c)
		}
	}
	var maxTime uint64
	for _, c := range s.cpus {
		if c.time > maxTime {
			maxTime = c.time
		}
	}
	s.c.Cycles = maxTime
	s.c.Bus = s.bus.Stats()
	// A directory machine's traffic lives on the home-node ports;
	// aggregate them into the single machine-wide record (the shared
	// bus is unused and reports zeros).
	for _, port := range s.ports {
		s.c.Bus.Accumulate(port.Stats())
	}
}

// Bus returns the shared bus (for inspection in tests).
func (s *Simulator) Bus() *bus.Bus { return s.bus }
