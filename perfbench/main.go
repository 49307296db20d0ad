// Command perfbench is the repository's benchmark. It drives three
// workloads — shell-run (one large Shell/Blk_Dma run through the public
// facade), sharing-campaign (a sharing-degree grid on the 16-CPU
// directory machine through campaign.Run) and daemon-mix (a seeded
// request mix against an in-process two-node ossimd cluster) — checks
// their outputs, and prints its end-to-end metrics (--trace 0) or its
// per-layer metrics (--trace 1).
//
// Each repetition runs in a fresh child process, so every run starts
// cold as a CLI user's does and its peak resident memory is its own.
// The parent repeats children until --seconds have passed and reports
// medians. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// and the line before it carries the run's metadata: host, commit,
// seed, repetitions, and the median and quartiles of every metric.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload shell-run --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// workloadDef binds a workload name to its untraced and traced reps.
type workloadDef struct {
	name   string
	unit   func(ctx context.Context, in input, fixtures string) (*repReport, error)
	traced func(ctx context.Context, in input, fixtures string) (*repReport, error)
	// fixtures reports whether untraced reps need the parent's fixtures
	// (traced reps always do: their probes use them).
	fixtures bool
}

var workloads = []workloadDef{
	{"shell-run", shellUnit, shellTraced, false},
	{"sharing-campaign", campaignUnit, campaignTracedRep, false},
	{"daemon-mix", daemonUnit, daemonTracedRep, true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// probes measures, inside a traced rep, the layers its workload does
// not pass through, then the self time of every layer.
func probes(ctx context.Context, rep *repReport, tr *tracer, in input, fixtures, self string) {
	streamProbe(ctx, rep, tr, in)
	if self != "sharing-campaign" {
		p, err := campaignTraced(ctx, tr, in, campaignProbe)
		if err != nil {
			rep.fail("campaign probe: %v", err)
		} else {
			rep.merge(p)
		}
	}
	if self != "daemon-mix" {
		p, err := daemonRun(ctx, in, fixtures, daemonProbeRequests, 1, tr)
		if err != nil {
			rep.fail("daemon probe: %v", err)
		} else {
			rep.merge(p)
		}
	}
	storeProbe(rep, tr, fixtures)
	for l, v := range tr.selfTimes() {
		rep.setLayer(l+".self_s", v)
	}
}

// runLimit bounds a whole benchmark run; the parent stops starting reps
// well before it.
const runLimit = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name         = flag.String("workload", "", "workload: shell-run, sharing-campaign or daemon-mix")
		seed         = flag.Int64("seed", 1, "workload seed; the program receives only inputs generated from it")
		seconds      = flag.Int("seconds", 30, "how long to repeat the workload")
		trace        = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child        = flag.String("child", "", "internal: run one rep (unit or traced) and print its report")
		variant      = flag.Int("variant", 0, "internal: the rep's input variant")
		fixtures     = flag.String("fixtures", "", "internal: fixture directory prepared by the parent")
		writeDigests = flag.String("write-digests", "", "record this seed's counter digest for the workload in the named digests file instead of checking it")
	)
	flag.Parse()
	def, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload shell-run|sharing-campaign|daemon-mix, --seconds >= 1 and --trace 0|1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if *child != "" {
		return childMain(ctx, def, *child, input{*seed, *variant}, *fixtures)
	}
	runs, fx, err := collect(ctx, def, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err == nil && *writeDigests != "" {
		err = recordDigest(*writeDigests, def.name, *seed, runs)
		if err == nil {
			return 0
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := aggregate(def, *seed, *seconds, *trace == 1, runs, fx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	meta, err := json.Marshal(res.meta)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
	return 0
}

// childMain runs one rep and prints its report as one JSON line.
func childMain(ctx context.Context, def workloadDef, mode string, in input, fixtures string) int {
	var rep *repReport
	var err error
	switch mode {
	case "unit":
		rep, err = def.unit(ctx, in, fixtures)
	case "traced":
		rep, err = def.traced(ctx, in, fixtures)
	default:
		err = fmt.Errorf("unknown rep mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s rep: %v\n", def.name, err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// repRun is one finished child: its report (nil when the child
// failed), peak resident memory and failure.
type repRun struct {
	rep    *repReport
	rssMB  float64
	err    error
	traced bool
}

// spawn runs one rep in a fresh child process.
func spawn(ctx context.Context, def workloadDef, mode string, in input, fixtures string) repRun {
	exe, err := os.Executable()
	if err != nil {
		return repRun{err: err}
	}
	args := []string{"-workload", def.name, "-seed", fmt.Sprint(in.Seed), "-variant", fmt.Sprint(in.Variant), "-child", mode}
	if fixtures != "" {
		args = append(args, "-fixtures", fixtures)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	r := repRun{traced: mode == "traced"}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		r.err = fmt.Errorf("%s rep: %w", mode, err)
		return r
	}
	var rep repReport
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		r.err = fmt.Errorf("%s rep: bad report: %w", mode, err)
		return r
	}
	r.rep = &rep
	return r
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// collect prepares the fixtures and repeats children for the measuring
// window: one untraced rep at a time, or, for a traced run, pairs of an
// untraced and a traced rep on the same input (their difference is the
// tracing overhead). Untraced runs cover every input variant at least
// once.
func collect(ctx context.Context, def workloadDef, seed int64, window time.Duration, traced bool) ([]repRun, *fixtureSet, error) {
	setupStart := time.Now()
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	var fixtures string
	var fx *fixtureSet
	if def.fixtures || traced {
		fixtures = tmp
		if fx, err = prepareFixtures(ctx, seed, tmp); err != nil {
			return nil, nil, fmt.Errorf("preparing fixtures: %w", err)
		}
	}
	prep := time.Since(setupStart)

	minReps := variants
	if traced {
		minReps = 2
	}
	var runs []repRun
	start := time.Now()
	var slowest time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= minReps && (elapsed >= window || elapsed+slowest > runLimit-prep-20*time.Second) {
			break
		}
		in := input{Seed: seed, Variant: i % variants}
		t0 := time.Now()
		runs = append(runs, spawn(ctx, def, "unit", in, fixtures))
		if traced {
			runs = append(runs, spawn(ctx, def, "traced", in, fixtures))
		}
		slowest = max(slowest, time.Since(t0))
		if ctx.Err() != nil {
			return nil, nil, fmt.Errorf("run exceeded %s", runLimit)
		}
	}
	return runs, fx, nil
}

// recordDigest writes the workload's counter digest of every input
// variant at this seed into the digests file, after checking that the
// reps of each variant agreed.
func recordDigest(path, name string, seed int64, runs []repRun) error {
	ds := make([]string, variants)
	for _, r := range runs {
		if r.err != nil || r.rep == nil || len(r.rep.Failures) > 0 {
			return errors.New("a rep failed; not recording digests")
		}
		v := r.rep.Variant
		if d := ds[v]; d != "" && r.rep.Digest != d {
			return fmt.Errorf("variant %d: reps disagree on the digest (%s vs %s)", v, d, r.rep.Digest)
		}
		ds[v] = r.rep.Digest
	}
	df := readDigests()
	if df.Seed != seed {
		df = digestFile{Seed: seed, Digests: map[string][]string{}}
	}
	df.Digests[name] = ds
	b, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// digestFile is the committed record of each workload's counters, per
// input variant, at one seed.
type digestFile struct {
	Seed    int64               `json:"seed"`
	Digests map[string][]string `json:"digests"`
}

// committed returns the committed digest of a workload's variant at
// seed, if there is one.
func (df digestFile) committed(name string, seed int64, variant int) (string, bool) {
	ds := df.Digests[name]
	if df.Seed != seed || variant >= len(ds) {
		return "", false
	}
	return ds[variant], true
}

//go:embed digests.json
var digestsJSON []byte

func readDigests() digestFile {
	df := digestFile{Digests: map[string][]string{}}
	_ = json.Unmarshal(digestsJSON, &df) // an unreadable file only means no committed digest
	if df.Digests == nil {
		df.Digests = map[string][]string{}
	}
	return df
}
