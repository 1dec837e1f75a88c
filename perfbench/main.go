// Command perfbench is EdgeHD's end-to-end benchmark. It builds the
// program's inputs from a seed, drives one workload through the public
// functions of the hierarchy, core, encoding, cluster, serve, wire,
// parallel and telemetry packages, checks every output against the
// benchmark's own computations, and prints the metrics with the
// operations it attempted and how many failed. The last line of its
// output is a JSON object.
//
//	go run . --workload infer-depth3 --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it prints the per-layer metrics instead, from a run
// that records spans around its calls into the program and writes them
// out when the run ends. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// metricSpec names a metric and its unit, as BENCHMARK.json lists them.
type metricSpec struct{ name, unit string }

// endToEnd are printed by untraced runs, every one on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"feedback_p50_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"infer_bytes_per_query", "B"},
	{"train_bytes", "B"},
	{"accuracy", "fraction"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are printed by traced runs. A layer a workload bypasses
// reads 0 there.
var perLayer = []metricSpec{
	{"encoding.encodes_per_query", "count"},
	{"encoding.ms_per_query", "ms"},
	{"encoding.encodes_per_feedback", "count"},
	{"hierarchy.escalations_per_query", "count"},
	{"hierarchy.projection_ops_per_query", "count"},
	{"hierarchy.project_ms_per_query", "ms"},
	{"hierarchy.sweep_bytes", "B"},
	{"core.searches_per_query", "count"},
	{"core.search_us", "us"},
	{"parallel.runs_per_query", "count"},
	{"serve.batch_size", "count"},
	{"serve.service_us", "us"},
	{"serve.overhead_ms", "ms"},
	{"serve.generator_lag_ms", "ms"},
	{"wire.bytes_per_query", "B"},
	{"wire.codec_us", "us"},
	{"cluster.local_train_ms", "ms"},
	{"cluster.push_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.pull_ms", "ms"},
	{"cluster.bytes_per_round", "B"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.query_p50_ms", "ms"},
}

// addBypassed adds 0 for every per-layer metric under the given layer
// prefixes: the workload does no work in those layers.
func addBypassed(rep *report, prefixes ...string) {
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				rep.add(m.name, m.unit, 0)
			}
		}
	}
}

// runOpts are the settings every workload takes from the command line.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	// trace records spans on a traced run; nil otherwise.
	trace *tracer
}

// reps is how often a workload repeats set-up and training to report
// their medians: once on a traced run, which reports neither.
func (o runOpts) reps(n int) int {
	if o.trace != nil {
		return 1
	}
	return n
}

// workloads maps each workload name to its run at full size.
// infer-depth3 runs but is not in BENCHMARK.json: on the 2-vCPU shared
// host its timings spread past the bounds between runs (README.md).
var workloads = map[string]func(runOpts) (*report, error){
	"infer-depth3": func(o runOpts) (*report, error) { return runDepth3(depth3(), o) },
	"online-city":  func(o runOpts) (*report, error) { return runCity(city(), o) },
	"serve-fed":    func(o runOpts) (*report, error) { return runFed(fed(), o) },
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: infer-depth3, online-city or serve-fed")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Float64("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/perfbench/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *secs <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*secs * float64(time.Second))}
	names := endToEnd
	if *trace == 1 {
		o.trace = newTracer()
		names = perLayer
	}
	rep, err := fn(o)
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", "MiB", peakRSSMiB())
	var keep []string
	for _, m := range names {
		keep = append(keep, m.name)
	}
	rep.keep(keep)
	if o.trace != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		}
		if err := o.trace.write(path, *workload, *seed); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", *workload, *seed, rep.attempted, rep.failed)
	return rep.write(os.Stdout)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
