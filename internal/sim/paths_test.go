package sim

import (
	"context"
	"strings"
	"testing"

	"oscachesim/internal/trace"
)

// Targeted tests for the less-travelled simulator paths.

func TestByPrefBufferHit(t *testing.T) {
	p := DefaultParams()
	p.Block = BlockBypassPref
	addr := uint64(0xAA000)
	refs := []trace.Ref{
		// Block prefetch routes to the prefetch buffer.
		{Addr: addr, Op: trace.OpPrefetch, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc},
	}
	// Enough intervening work to complete the fill.
	for i := 0; i < 60; i++ {
		refs = append(refs, trace.Ref{Addr: 0x1000 + uint64(i%4)*4, Op: trace.OpInstr, Kind: trace.KindOS})
	}
	refs = append(refs, trace.Ref{Addr: addr, Op: trace.OpRead, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc, Len: 64})
	// Roll the 8-line FIFO prefetch buffer over with further block
	// prefetches so addr's entry is evicted...
	for i := 1; i <= 8; i++ {
		refs = append(refs, trace.Ref{Addr: addr + uint64(i)*16, Op: trace.OpPrefetch, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc})
		for j := 0; j < 60; j++ {
			refs = append(refs, trace.Ref{Addr: 0x1000 + uint64(j%4)*4, Op: trace.OpInstr, Kind: trace.KindOS})
		}
		refs = append(refs, trace.Ref{Addr: addr + uint64(i)*16, Op: trace.OpRead, Kind: trace.KindOS, Block: 1, Role: trace.BlockSrc, Len: 64})
	}
	// ...then a non-block read of the original line must MISS: the
	// buffer served the block read without installing the line in the
	// caches.
	refs = append(refs, osRead(addr))
	res := run(t, p, refs)
	c := res.Counters
	if c.DReadMisses[trace.KindOS] < 1 {
		t.Errorf("misses = %d; the post-block read should miss (no cache install)", c.DReadMisses[trace.KindOS])
	}
	if c.Prefetches != 9 {
		t.Errorf("prefetches = %d, want 9", c.Prefetches)
	}
	if c.Block.OutsideReuse == 0 {
		t.Error("the post-block miss was not counted as an outside reuse")
	}
}

func TestBypassWriteFlushesPerLine(t *testing.T) {
	p := DefaultParams()
	p.Block = BlockBypass
	var refs []trace.Ref
	// 4 L2 lines (32B each) of destination writes, word by word.
	for i := 0; i < 32; i++ {
		refs = append(refs, trace.Ref{
			Addr: 0xBB000 + uint64(i*4), Op: trace.OpWrite, Kind: trace.KindOS,
			Block: 1, Role: trace.BlockDst, Len: 128,
		})
	}
	res := run(t, p, refs)
	// Each 32-byte line flush is one word-write bus transaction; the
	// last line stays in the register (flushed only by a later op),
	// so expect 3 flushes.
	if got := res.Counters.Bus.Transactions[5]; got != 3 { // bus.KindWordWrite
		t.Errorf("line flushes = %d, want 3", got)
	}
}

func TestSimulatorBusAccessor(t *testing.T) {
	s, err := New(DefaultParams(), []trace.Source{
		trace.NewSliceSource(nil), trace.NewSliceSource(nil),
		trace.NewSliceSource(nil), trace.NewSliceSource(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Bus() == nil {
		t.Error("Bus() = nil")
	}
}

func TestBarrierDefaultParticipants(t *testing.T) {
	// Len 0 means "all CPUs".
	bar := trace.Ref{Addr: 0xCC000, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncBarrier, SyncID: 1}
	res := run(t, DefaultParams(), []trace.Ref{bar}, []trace.Ref{bar}, []trace.Ref{bar}, []trace.Ref{bar})
	for i := 1; i < 4; i++ {
		if res.CPUTime[i] != res.CPUTime[0] {
			t.Errorf("cpu%d not synchronized", i)
		}
	}
}

func TestLockReleaseWithoutAcquireTolerated(t *testing.T) {
	rel := trace.Ref{Addr: 0xDD000, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockRelease, SyncID: 9}
	res := run(t, DefaultParams(), []trace.Ref{rel, osRead(0x1000)})
	if res.Refs != 2 {
		t.Errorf("refs = %d", res.Refs)
	}
}

func TestDeadlockErrorMessageNamesCulprits(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 2
	acq := trace.Ref{Addr: 0x100, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: 7}
	srcs := []trace.Source{
		trace.NewSliceSource([]trace.Ref{acq}),
		trace.NewSliceSource([]trace.Ref{{CPU: 1, Addr: 0x100, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: 7}}),
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background())
	if err == nil {
		t.Fatal("no deadlock error")
	}
	if !strings.Contains(err.Error(), "lock 7") {
		t.Errorf("deadlock error does not name the lock: %v", err)
	}
}

// TestDeadlockErrorIsDeterministic builds a two-lock cycle (cpu0 holds
// lock 1 and wants lock 2, cpu1 holds lock 2 and wants lock 1) and
// checks that the error names both locks in ascending order, run after
// run, whatever the map iteration order.
func TestDeadlockErrorIsDeterministic(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 2
	acq := func(cpu uint8, id uint32) trace.Ref {
		return trace.Ref{CPU: cpu, Addr: 0x100 * uint64(id), Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncLockAcquire, SyncID: id}
	}
	var first string
	for i := 0; i < 20; i++ {
		s, err := New(p, []trace.Source{
			trace.NewSliceSource([]trace.Ref{acq(0, 1), acq(0, 2)}),
			trace.NewSliceSource([]trace.Ref{acq(1, 2), acq(1, 1)}),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(context.Background())
		if err == nil {
			t.Fatal("no deadlock error")
		}
		msg := err.Error()
		if i == 0 {
			first = msg
			l1, l2 := strings.Index(msg, "lock 1 held by cpu0"), strings.Index(msg, "lock 2 held by cpu1")
			if l1 < 0 || l2 < 0 || l1 > l2 {
				t.Fatalf("deadlock error does not name lock 1 then lock 2: %v", msg)
			}
		} else if msg != first {
			t.Fatalf("run %d: deadlock error %q differs from %q", i, msg, first)
		}
	}
}

func TestDeadlockErrorNamesBarrier(t *testing.T) {
	p := DefaultParams()
	p.NumCPUs = 2
	bar := trace.Ref{Addr: 0x200, Op: trace.OpWrite, Kind: trace.KindOS, Sync: trace.SyncBarrier, SyncID: 3, Len: 2}
	srcs := []trace.Source{
		trace.NewSliceSource([]trace.Ref{bar}),
		trace.NewSliceSource(nil), // never arrives
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background())
	if err == nil {
		t.Fatal("no deadlock error")
	}
	if !strings.Contains(err.Error(), "barrier 3") {
		t.Errorf("deadlock error does not name the barrier: %v", err)
	}
}

func TestModeOfClampsUnknownKinds(t *testing.T) {
	if modeOf(trace.Kind(7)) != int(trace.KindOS) {
		t.Error("unknown kind not clamped to OS")
	}
	if modeOf(trace.KindUser) != 0 || modeOf(trace.KindIdle) != 2 {
		t.Error("known kinds mis-mapped")
	}
}

func TestRegionNamerCensus(t *testing.T) {
	p := DefaultParams()
	p.RegionNamer = func(addr uint64) string {
		if addr < 0x10000 {
			return "low"
		}
		return "high"
	}
	// Two conflicting lines, one in each region, alternating: each
	// refill evicts the other.
	lo, hi := uint64(0x8000), uint64(0x8000+32*1024)
	var refs []trace.Ref
	for i := 0; i < 6; i++ {
		refs = append(refs, osRead(lo), osRead(hi))
	}
	srcs := []trace.Source{
		trace.NewSliceSource(refs),
		trace.NewSliceSource(nil), trace.NewSliceSource(nil), trace.NewSliceSource(nil),
	}
	s, err := New(p, srcs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts == nil {
		t.Fatal("no conflict census with RegionNamer set")
	}
	if res.Conflicts[ConflictPair{Evictor: "high", Victim: "low"}] == 0 {
		t.Errorf("census missing high->low evictions: %v", res.Conflicts)
	}
	if res.Conflicts[ConflictPair{Evictor: "low", Victim: "high"}] == 0 {
		t.Errorf("census missing low->high evictions: %v", res.Conflicts)
	}
}

func TestValidateRejectsBadBusAndPrefBuf(t *testing.T) {
	p := DefaultParams()
	p.Bus.WidthBytes = 0
	if err := p.Validate(); err == nil {
		t.Error("bad bus accepted")
	}
	p = DefaultParams()
	p.Block = BlockBypassPref
	p.PrefBufLines = 0
	if err := p.Validate(); err == nil {
		t.Error("bypass+pref without buffer accepted")
	}
	p = DefaultParams()
	p.L1HitCycles = 0
	if err := p.Validate(); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestUnknownSchemeString(t *testing.T) {
	if got := BlockScheme(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown scheme = %q", got)
	}
}
