// Command ablate runs the ablation studies that quantify the
// sensitivity of the paper's results to its design choices: write
// buffer depths, Blk_Pref software-pipelining distance, the Blk_Dma
// bus transfer rate, the selective-update variable-set granularity,
// and primary-cache associativity.
//
// Usage:
//
//	ablate                      # run every study
//	ablate -study update-set    # one study
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"oscachesim/internal/experiment"
)

func main() {
	var (
		study    = flag.String("study", "all", "study id or all (write-buffers, prefetch-distance, dma-rate, update-set, associativity, conflict-pairs, perturbation)")
		scale    = flag.Int("scale", 0, "scheduling rounds per workload (0 = default)")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		parallel = flag.Bool("parallel", true, "render studies concurrently (output order is unchanged)")
		workers  = flag.Int("workers", 0, "simulation worker count when parallel (0 = GOMAXPROCS)")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancels the in-flight simulation promptly
	// instead of letting the study run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := experiment.NewRunnerContext(ctx, experiment.Config{
		Scale: *scale, Seed: *seed, Parallel: *parallel, Workers: *workers,
	})
	studies := experiment.Ablations()
	if *study != "all" {
		e, err := experiment.FindAblation(*study)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablate:", err)
			os.Exit(1)
		}
		studies = []experiment.Experiment{e}
	}

	// Studies render concurrently (their simulations dedup through the
	// shared Runner cache) but print in order, so the output matches a
	// serial run byte for byte.
	type rendered struct {
		out string
		err error
	}
	results := make([]rendered, len(studies))
	var wg sync.WaitGroup
	for i, e := range studies {
		if !*parallel {
			results[i].out, results[i].err = e.Render(r)
			continue
		}
		wg.Add(1)
		go func(i int, e experiment.Experiment) {
			defer wg.Done()
			results[i].out, results[i].err = e.Render(r)
		}(i, e)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			if errors.Is(res.err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "ablate: interrupted:", res.err)
			} else {
				fmt.Fprintln(os.Stderr, "ablate:", res.err)
			}
			os.Exit(1)
		}
		fmt.Println(res.out)
	}
}
