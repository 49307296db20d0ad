package sim

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"oscachesim/internal/trace"
)

// argmin is the reference scheduler: the lowest id among the runnable
// processors with the smallest clock, or -1 when none can run.
func argmin(cpus []*cpuState) int {
	best := -1
	for i, c := range cpus {
		if c.done || c.blocked {
			continue
		}
		if best < 0 || c.time < cpus[best].time {
			best = i
		}
	}
	return best
}

// TestWinnerTreeMatchesArgmin drives the winner tree through random
// steps — clock advances (ties included), blocking, finishing, and
// several wake-ups in one step — and compares its root against a
// brute-force argmin after every update.
func TestWinnerTreeMatchesArgmin(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 33, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := &Simulator{tree: newTree(n)}
		cpus := make([]*cpuState, n)
		for i := range cpus {
			cpus[i] = &cpuState{id: i}
			s.reschedule(cpus[i])
		}
		check := func(step int) {
			t.Helper()
			root := s.tree[1]
			want := argmin(cpus)
			if want < 0 {
				if root != idle {
					t.Fatalf("n=%d step %d: tree picks cpu%d, but nothing is runnable", n, step, root&idMask)
				}
				return
			}
			if root == idle || int(root&idMask) != want {
				t.Fatalf("n=%d step %d: tree root %#x, argmin is cpu%d (clock %d)",
					n, step, root, want, cpus[want].time)
			}
		}
		check(0)
		for step := 1; step <= 4000; step++ {
			next := s.tree[1]
			if next == idle {
				// Nothing runnable: release every blocked processor
				// at once, as a barrier would.
				var woken []*cpuState
				for _, c := range cpus {
					if c.blocked {
						c.blocked = false
						woken = append(woken, c)
					}
				}
				if len(woken) == 0 {
					break // all done
				}
				for _, c := range woken {
					s.reschedule(c)
				}
				check(step)
				continue
			}
			c := cpus[next&idMask]
			var woken []*cpuState
			switch op := rng.Intn(20); {
			case op < 12:
				c.time += uint64(rng.Intn(3))
			case op < 15:
				c.blocked = true
			case op < 16:
				c.done = true
			default:
				// A grant or release: wake up to three blocked
				// processors at c's clock plus a grant latency, then
				// let the granted access advance them further before
				// their keys are refreshed.
				c.time++
				for _, o := range cpus {
					if o.blocked && len(woken) < 3 && rng.Intn(2) == 0 {
						o.blocked = false
						o.time = max(o.time, c.time) + uint64(rng.Intn(3))
						woken = append(woken, o)
					}
				}
				for _, o := range woken {
					o.time += uint64(rng.Intn(3))
				}
			}
			s.reschedule(c)
			for _, o := range woken {
				s.reschedule(o)
			}
			check(step)
		}
	}
}

// minClockChecker asserts, at every reference, that the issuing
// processor is the runnable one with the smallest (clock, id).
type minClockChecker struct {
	t    *testing.T
	s    *Simulator
	refs int
	bad  int
}

func (m *minClockChecker) Observe(ev Event) {
	if ev.Kind != EvRef {
		return
	}
	m.refs++
	c := m.s.cpus[ev.CPU]
	for _, o := range m.s.cpus {
		if o == c || o.done || o.blocked {
			continue
		}
		if o.time < c.time || (o.time == c.time && o.id < c.id) {
			if m.bad++; m.bad <= 3 {
				m.t.Errorf("ref %d issued by cpu%d at clock %d, but cpu%d is runnable at clock %d",
					ev.RefIndex, c.id, c.time, o.id, o.time)
			}
			return
		}
	}
}

// TestLockHandoffSchedulesTrueMinimum runs 40 processors of a
// directory machine contending for one lock between random reads and
// writes. Each handoff's test&set misses (the lock line is Modified at
// the releaser) and advances the woken processor past its grant time
// inside the releasing step, while the others sit at clocks around
// it. Every reference must still be issued by the processor with the
// true minimum clock.
func TestLockHandoffSchedulesTrueMinimum(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 40
	p.Coherence = CoherenceDirectory
	lockAddr := uint64(0x70000)
	acq := trace.Ref{Addr: lockAddr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassLock, Sync: trace.SyncLockAcquire, SyncID: 1}
	rel := trace.Ref{Addr: lockAddr, Op: trace.OpWrite, Kind: trace.KindOS, Class: trace.ClassLock, Sync: trace.SyncLockRelease, SyncID: 1}
	srcs := make([]trace.Source, p.NumCPUs)
	for i := range srcs {
		rng := rand.New(rand.NewSource(int64(i)))
		var refs []trace.Ref
		for round := 0; round < 10; round++ {
			for k := 0; k < 8; k++ {
				a := 0x80000 + uint64(rng.Intn(256))*32
				if rng.Intn(2) == 0 {
					refs = append(refs, osRead(a))
				} else {
					refs = append(refs, osWrite(a))
				}
			}
			refs = append(refs, acq, osRead(0x90000), osWrite(0x90000), rel)
		}
		for j := range refs {
			refs[j].CPU = uint8(i)
		}
		srcs[i] = trace.NewSliceSource(refs)
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	chk := &minClockChecker{t: t, s: s}
	s.SetObserver(chk)
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Time[trace.KindOS].Sync == 0 {
		t.Fatal("no processor waited for the lock; the trace has no handoff")
	}
	if chk.refs != int(res.Refs) {
		t.Errorf("checked %d refs, ran %d", chk.refs, res.Refs)
	}
	if chk.bad > 0 {
		t.Errorf("%d references issued out of global-time order", chk.bad)
	}
}

// TestClockOverflowIsAnError checks that a processor whose clock no
// longer fits in a scheduling key stops the run instead of being
// scheduled out of order.
func TestClockOverflowIsAnError(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 2
	s, err := New(p, []trace.Source{
		trace.NewSliceSource([]trace.Ref{osRead(0x1000)}),
		trace.NewSliceSource([]trace.Ref{{CPU: 1, Addr: 0x2000, Op: trace.OpRead, Kind: trace.KindOS}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.cpus[0].time = maxClock + 1
	s.reschedule(s.cpus[0])
	if _, err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cpu0's clock") {
		t.Errorf("run with an overflowing clock: err = %v", err)
	}
}
