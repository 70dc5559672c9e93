// Command analyze answers the paper's "what" and "how much" questions for
// a workload: it classifies each section through a tree saved by
// cmd/train, ranks the micro-architectural events by their predicted
// contribution to CPI, and reports the split-variable impacts.
//
// Typical pipeline:
//
//	collect -out data.csv                 # simulate the suite
//	train -in data.csv -out tree.json     # fit the model tree
//	analyze -tree tree.json -bench 429.mcf
//	analyze -tree tree.json -in other.csv # analyze a pre-collected CSV
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		treePath = fs.String("tree", "", "model tree JSON file from train -out (required)")
		in       = fs.String("in", "", "section CSV to analyze")
		bench    = fs.String("bench", "", "or: simulate and analyze one suite benchmark")
		scale    = fs.Float64("scale", 0.25, "suite scale when using -bench")
		seed     = fs.Int64("seed", 99, "simulation seed when using -bench")
		impacts  = fs.Bool("impacts", false, "also print split-variable impact table")
		section  = fs.Int("section", -1, "print a full Eq.4-style decomposition of this section index")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *treePath == "" || (*in == "" && *bench == "") {
		fs.Usage()
		return errors.New("-tree plus one of -in or -bench is required")
	}

	tree, err := mtree.ReadFile(*treePath)
	if err != nil {
		return err
	}
	desc := tree.Describe()
	fmt.Fprintf(stdout, "loaded %s: %d leaves, target %s, trained on %d sections\n\n",
		desc.Kind, desc.NumLeaves, desc.Target, desc.TrainN)

	var d *dataset.Dataset
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		d, err = dataset.ReadCSV(f, desc.Target)
		f.Close()
		if err != nil {
			return err
		}
	default:
		b, ok := workload.BenchmarkByName(*bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *bench)
		}
		cfg := counters.DefaultCollectConfig()
		cfg.Seed = *seed
		col, err := counters.CollectBenchmark(b.Scale(*scale), cfg)
		if err != nil {
			return err
		}
		d = col.Data
		fmt.Fprintf(stdout, "simulated %s: %d sections\n\n", *bench, d.Len())
	}

	report := analysis.AnalyzeWorkload(tree, d)
	fmt.Fprint(stdout, report.Render())

	if *section >= 0 {
		if *section >= d.Len() {
			return fmt.Errorf("section %d out of range (%d sections)", *section, d.Len())
		}
		sr := analysis.AnalyzeSection(tree, d.Row(*section))
		fmt.Fprintf(stdout, "\nsection %d: class LM%d, predicted %s %.3f (actual %.3f)\n",
			*section, sr.LeafID, desc.Target, sr.PredictedCPI, d.Target(*section))
		fmt.Fprintln(stdout, "decision path:")
		for _, step := range sr.Path {
			fmt.Fprintf(stdout, "  %s\n", step)
		}
		fmt.Fprintf(stdout, "baseline (intercept): %.4f\n", sr.Baseline)
		printContributions(stdout, sr.Contributions)
	}

	if *impacts {
		fmt.Fprintln(stdout, "\nsplit-variable impacts over this dataset:")
		fmt.Fprint(stdout, analysis.RenderSplitImpacts(analysis.SplitImpacts(tree, d)))
	}
	return nil
}

func printContributions(w io.Writer, cs []analysis.Contribution) {
	fmt.Fprintf(w, "%-10s %12s %12s %12s %10s\n", "event", "coef", "rate", "CPI share", "gain")
	for _, c := range cs {
		fmt.Fprintf(w, "%-10s %12.4g %12.6f %12.4f %9.1f%%\n", c.Name, c.Coef, c.Rate, c.Cycles, 100*c.Fraction)
	}
}
