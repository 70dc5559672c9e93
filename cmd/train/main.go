// Command train fits an M5' model tree to a section dataset (CSV with a
// CPI column, as produced by cmd/collect), prints the tree with its leaf
// models, optionally cross-validates, and optionally saves the tree as
// JSON for cmd/analyze and cmd/serve.
//
// Usage:
//
//	train -in data.csv [-minleaf 430] [-cv 10] [-out tree.json]
//	      [-target CPI] [-march core2] [-nosmooth] [-noprune] [-jobs N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mtree"
	"repro/internal/naive"
	"repro/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in      = fs.String("in", "", "input CSV path (required)")
		target  = fs.String("target", "CPI", "target column name")
		minLeaf = fs.Int("minleaf", 430, "minimum instances per leaf (paper: 430)")
		cv      = fs.Int("cv", 0, "k for k-fold cross validation (0 = skip)")
		seed    = fs.Int64("seed", 7, "cross-validation shuffle seed")
		out     = fs.String("out", "", "write the trained tree to this path")
		smooth  = fs.Bool("smooth", true, "enable M5 smoothing")
		prune   = fs.Bool("prune", true, "enable post-pruning")
		global  = fs.Bool("global", false, "also fit/evaluate a single global linear model")
		jobs    = fs.Int("jobs", 0, "worker count for CV folds, bootstrap resamples and split scoring (0 = all cores, 1 = serial; results are identical)")
		machine = fs.String("march", "", "machine the training data was collected on; recorded as the model's provenance tag (carried through persistence and GET /v1/models)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return errors.New("-in is required")
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	d, err := dataset.ReadCSV(f, *target)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %d sections x %d attributes from %s\n\n", d.Len(), d.NumAttrs(), *in)

	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = *minLeaf
	cfg.Smooth = *smooth
	cfg.Prune = *prune
	cfg.Jobs = *jobs
	par := parallel.Config{Jobs: *jobs}

	tree, err := mtree.Build(d, cfg)
	if err != nil {
		return err
	}
	tree.Machine = *machine
	fmt.Fprintln(stdout, tree.Summary())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, tree.String())

	train, err := eval.Evaluate(tree, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ntraining fit:      %s\n", train)

	if *cv >= 2 {
		learner := eval.LearnerFunc{N: "M5'", F: func(d *dataset.Dataset) (eval.Regressor, error) {
			return mtree.Build(d, cfg)
		}}
		res, err := eval.CrossValidate(learner, d, *cv, *seed, par)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d-fold CV pooled: %s\n", *cv, res.Pooled)
		fmt.Fprintf(stdout, "%d-fold CV mean:   %s\n", *cv, res.MeanFoldMetrics())
		if corr, mae, rae, err := eval.BootstrapCI(res.Predicted, res.Actual, 1000, 0.95, *seed, par); err == nil {
			fmt.Fprintf(stdout, "95%% bootstrap CI:  C %s  MAE %s  RAE %s\n", corr, mae, rae)
		}
	}

	if *global {
		g, err := naive.TrainGlobalLinear(d)
		if err != nil {
			return err
		}
		gm, err := eval.Evaluate(g, d)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "global linear fit: %s\n", gm)
		fmt.Fprintf(stdout, "global linear model: CPI = %s\n", g.Model)
	}

	if *out != "" {
		if err := tree.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tree written to %s\n", *out)
	}
	return nil
}
