// Command perfbench is the repository's benchmark: a single-process,
// closed-loop client. It builds a workload's ca3dmm.Engine(s), scatters
// the operands once, and issues warm Engine.Multiply calls on the
// resident blocks, each only after the previous one returned, verifying
// every result outside the timed region.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload square-1024 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 prints the per-layer metrics of a separate traced run.
// --workload all runs every workload both ways and prints everything.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	ca3dmm "repro"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "seconds of warm calls to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	traces := []bool{*trace == 1}
	if *name == "all" {
		traces = []bool{false, true}
	}
	fmt.Printf("env go=%s gomaxprocs=%d numcpu=%d gemm_threads=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), ca3dmm.GemmThreads())
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		for _, traced := range traces {
			res, err := run(w, *seed, float64(*seconds), traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			for _, k := range sortedKeys(res.Metrics) {
				m := res.Metrics[k]
				fmt.Printf("%-12s %-32s %14.6g %s\n", w.name, k, m.Value, m.Unit)
				if len(ws) > 1 {
					k = w.name + "/" + k
				}
				total.Metrics[k] = m
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
func run(w *workload, seed uint64, seconds float64, traced bool) (*result, error) {
	build, err := w.gen(w, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if traced {
		return runTraced(w, build, seconds)
	}
	r, err := measureE2E(build, w.usefulFlops(), seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-12s %-32s %14.6g %s\n", w.name, "call_p99_us (diagnostic)", quantile(r.callUS, 0.99), "us")
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.calls,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"gflops":                  {median(r.gflops), "GFLOP/s"},
			"call_p50_us":             {median(r.p50), "us"},
			"call_p90_us":             {median(r.p90), "us"},
			"setup_s":                 {median(r.setupS), "s"},
			"heap_growth_kb_per_call": {r.growthKB(), "KB"},
		},
	}, nil
}
