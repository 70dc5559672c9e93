// Command experiments reproduces the paper's tables and figures (and the
// repository's ablations) on the simulated substrate and prints a
// paper-vs-measured comparison for each.
//
// Usage:
//
//	experiments                 # run everything at paper scale
//	experiments -run accuracy   # one experiment
//	experiments -list           # list experiment names
//	experiments -scale 0.2      # faster, reduced-scale run
//	experiments -jobs 1         # force fully serial execution
//	experiments -march nehalem  # run the suite on another registry machine
//	experiments -run crossarch  # the cross-architecture experiment alone
//
// Independent experiments run concurrently (-jobs workers, default all
// cores) and every layer below them — suite simulation, CV folds, bagged
// trees, split scoring — uses the same worker budget. Output is printed
// in registry order and is byte-identical for every -jobs value.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/march"
	"repro/internal/parallel"
	"repro/internal/profiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run     = flag.String("run", "", "comma-separated experiment names (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")
		scale   = flag.Float64("scale", 1.0, "suite size multiplier")
		minLeaf = flag.Int("minleaf", 430, "M5' minimum leaf population at scale 1.0")
		folds   = flag.Int("cv", 10, "cross-validation folds")
		seed    = flag.Int64("seed", 42, "random seed")
		jobs    = flag.Int("jobs", 0, "worker count for experiments and all parallel stages (0 = all cores, 1 = serial; results are identical)")
		marchN  = flag.String("march", "", "built-in machine preset the shared collection simulates (default core2)")
		marchF  = flag.String("march-file", "", "JSON machine-spec file for the shared collection (mutually exclusive with -march)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.StartCPU(*cpuProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	defer func() {
		if err := profiling.WriteHeap(*memProf); err != nil {
			log.Print(err)
		}
	}()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.Name, e.Desc)
		}
		return
	}

	spec, err := march.Resolve(*marchN, *marchF)
	if err != nil {
		log.Fatal(err)
	}
	cfg := experiments.DefaultConfig()
	cfg.Machine = spec
	cfg.Scale = *scale
	cfg.MinLeaf = *minLeaf
	cfg.Folds = *folds
	cfg.Seed = *seed
	cfg.Jobs = *jobs
	ctx := experiments.NewContext(cfg)

	var selected []experiments.Experiment
	if *run == "" {
		selected = experiments.All()
	} else {
		for _, name := range strings.Split(*run, ",") {
			name = strings.TrimSpace(name)
			e, ok := experiments.ByName(name)
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", name)
			}
			selected = append(selected, e)
		}
	}

	// Experiments are independent given the shared (once-guarded)
	// collection, so they run concurrently; results are buffered and
	// printed in registry order.
	type outcome struct {
		res experiments.Result
		dur time.Duration
	}
	outs, err := parallel.Map(parallel.Config{Jobs: *jobs}, selected,
		func(_ int, e experiments.Experiment) (outcome, error) {
			start := time.Now()
			res, err := e.Run(ctx)
			if err != nil {
				return outcome{}, fmt.Errorf("%s: %w", e.Name, err)
			}
			return outcome{res: res, dur: time.Since(start)}, nil
		})
	if err != nil {
		log.Fatal(err)
	}
	failures := 0
	for i, o := range outs {
		fmt.Println(o.res.Render())
		fmt.Printf("(%s completed in %v)\n\n", selected[i].Name, o.dur.Round(time.Millisecond))
		for _, c := range o.res.Claims {
			if !c.Holds {
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d claim(s) diverge from the paper; see EXPERIMENTS.md for discussion.\n", failures)
		os.Exit(0) // divergences are reported, not fatal
	}
}
