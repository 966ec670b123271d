// pgemm-bench regenerates the tables and figures of the CA3DMM
// paper's evaluation. Paper-scale rows come from the cluster cost
// model driving the real planners; the -real experiments execute the
// actual algorithms on goroutine ranks at laptop scale.
//
// Usage:
//
//	pgemm-bench -exp fig3|fig4|fig5|table1|table2|table3|lsweep|all
//	pgemm-bench -exp real|realmem|realgrid [-procs N]
//	pgemm-bench -exp overlap [-procs N] [-reps R] [-out BENCH_overlap.json]
//	pgemm-bench -exp engine [-procs N] [-reps R] [-assert-warm-setup F] [-out BENCH_engine.json]
//	pgemm-bench -exp runtime [-out BENCH_runtime.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/enginebench"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig3 fig4 fig5 table1 table2 table3 lsweep sensitivity weak all real realmem realgrid overlap abft engine runtime")
	procs := flag.Int("procs", 16, "rank count for -exp real/overlap/abft/engine")
	reps := flag.Int("reps", 3, "timed repetitions for -exp overlap/abft/engine (best kept)")
	out := flag.String("out", "", "output file for -exp overlap/abft/engine/runtime (empty = BENCH_<exp>.json; \"none\" to skip)")
	assertWarm := flag.Float64("assert-warm-setup", 0, "for -exp engine: fail unless warm-call setup < this fraction of the cold call's (0 = no assertion)")
	flag.Parse()

	mach := sim.Phoenix()
	w := os.Stdout
	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w)
	}

	run("fig3", func() error { return experiments.Fig3(w, mach) })
	run("fig4", func() error { return experiments.Fig4(w, mach) })
	run("fig5", func() error { return experiments.Fig5(w, mach) })
	run("table1", func() error { return experiments.Table1(w, mach) })
	run("table2", func() error { return experiments.Table2(w, mach) })
	run("table3", func() error { return experiments.Table3(w, mach) })
	run("lsweep", func() error { return experiments.LSweep(w) })
	run("sensitivity", func() error { return experiments.Sensitivity(w) })
	run("weak", func() error { return experiments.WeakScaling(w, mach) })
	// Real executions are opt-in (not part of "all") since they take
	// longer than the modeled tables.
	if *exp == "real" {
		run("real", func() error { return experiments.RealScaled(w, *procs) })
	}
	if *exp == "realmem" {
		run("realmem", func() error { return experiments.RealMemoryTable(w) })
	}
	if *exp == "realgrid" {
		run("realgrid", func() error { return experiments.RealGridSweep(w) })
	}
	if *out == "none" {
		*out = ""
	} else if *exp == "overlap" && *out == "" {
		*out = "BENCH_overlap.json"
	} else if *exp == "abft" && *out == "" {
		*out = "BENCH_abft.json"
	} else if *exp == "engine" && *out == "" {
		*out = "BENCH_engine.json"
	} else if *exp == "runtime" && *out == "" {
		*out = "BENCH_runtime.json"
	}
	if *exp == "overlap" {
		run("overlap", func() error { return experiments.RealOverlap(w, *procs, *reps, *out) })
	}
	if *exp == "abft" {
		run("abft", func() error { return experiments.RealABFT(w, *procs, *reps, *out) })
	}
	if *exp == "engine" {
		run("engine", func() error { return enginebench.RealEngine(w, *procs, *reps, *assertWarm, *out) })
	}
	if *exp == "runtime" {
		run("runtime", func() error { return experiments.RealRuntime(w, *out) })
	}
}
