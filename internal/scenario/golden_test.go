// Goldens for the scenario engine: the false-sharing trio simulated
// end to end on the paper's 4-CPU snooping machine and on 16- and
// 40-CPU directory machines, every headline counter pinned byte-for-byte.
// The external test package breaks the scenario -> core import cycle
// (core's workload layer imports scenario).
package scenario_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oscachesim/internal/core"
	"oscachesim/internal/scenario"
	"oscachesim/internal/sim"
)

// update regenerates the golden files instead of comparing:
// go test ./internal/scenario/ -run TestGoldenPresets -update
var update = flag.Bool("update", false, "rewrite testdata/golden files from current output")

// goldenMachines are the machine shapes the presets are pinned on.
// dir40 is the only byte-pinned machine above 16 CPUs, so it pins the
// scheduling order where many processors are runnable at once.
func goldenMachines() []struct {
	name string
	p    *sim.Params
} {
	snoop := sim.DefaultParams()
	dir := sim.DefaultParams()
	dir.NumCPUs = 16
	dir.Coherence = sim.CoherenceDirectory
	dir40 := dir
	dir40.NumCPUs = 40
	return []struct {
		name string
		p    *sim.Params
	}{
		{"snoop4", &snoop},
		{"dir16", &dir},
		{"dir40", &dir40},
	}
}

// renderOutcome is the stable one-preset report the goldens pin.
func renderOutcome(spec string, machine string, o *core.Outcome) string {
	var b strings.Builder
	c := &o.Counters
	fmt.Fprintf(&b, "scenario %s machine %s system %s\n", spec, machine, o.Config.Workload)
	fmt.Fprintf(&b, "refs=%d cycles=%d\n", o.Refs, c.Cycles)
	fmt.Fprintf(&b, "dreads=%d dread_misses=%d miss_rate=%.4f\n",
		c.TotalDReads(), c.TotalDReadMisses(), c.D1MissRate())
	fmt.Fprintf(&b, "bus_transactions=%d\n", c.Bus.TotalTransactions())
	return b.String()
}

func TestGoldenPresets(t *testing.T) {
	presets := []string{"fs-naive", "fs-padded", "fs-chunked"}
	for _, m := range goldenMachines() {
		m := m
		for _, name := range presets {
			name := name
			t.Run(m.name+"/"+name, func(t *testing.T) {
				spec, err := scenario.Preset(name)
				if err != nil {
					t.Fatal(err)
				}
				machine := *m.p
				o, err := core.Run(context.Background(), core.RunConfig{
					Scenario: spec, System: core.Base, Seed: 1, Machine: &machine,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := renderOutcome(name, m.name, o)
				path := filepath.Join("testdata", "golden", name+"-"+m.name+".golden")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
						name, path, got, want)
				}
			})
		}
	}
}

// TestFalseSharingTrioShape pins the behavioural claim behind the trio
// (independently of the exact golden numbers): the naive layout
// ping-pongs lines and must be dramatically slower and missier than
// both remedies, on both coherence protocols.
func TestFalseSharingTrioShape(t *testing.T) {
	for _, m := range goldenMachines() {
		m := m
		if m.name == "dir40" {
			// dir40 is pinned by the goldens only: at 40 CPUs fs-chunked
			// takes more cycles than fs-naive, so the shape claim holds
			// for the smaller machines alone.
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			outs := map[string]*core.Outcome{}
			for _, name := range []string{"fs-naive", "fs-padded", "fs-chunked"} {
				spec, err := scenario.Preset(name)
				if err != nil {
					t.Fatal(err)
				}
				machine := *m.p
				o, err := core.Run(context.Background(), core.RunConfig{
					Scenario: spec, System: core.Base, Seed: 1, Machine: &machine,
				})
				if err != nil {
					t.Fatal(err)
				}
				outs[name] = o
			}
			naive, padded, chunked := outs["fs-naive"], outs["fs-padded"], outs["fs-chunked"]
			if naive.Counters.Cycles < 2*padded.Counters.Cycles {
				t.Errorf("naive (%d cycles) is not >= 2x padded (%d cycles)",
					naive.Counters.Cycles, padded.Counters.Cycles)
			}
			if naive.Counters.Cycles < 2*chunked.Counters.Cycles {
				t.Errorf("naive (%d cycles) is not >= 2x chunked (%d cycles)",
					naive.Counters.Cycles, chunked.Counters.Cycles)
			}
			if naive.Counters.D1MissRate() < 4*padded.Counters.D1MissRate() {
				t.Errorf("naive miss rate %.4f is not >= 4x padded %.4f",
					naive.Counters.D1MissRate(), padded.Counters.D1MissRate())
			}
		})
	}
}
