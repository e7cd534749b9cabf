// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget, checks the program's outputs, and prints one JSON
// result line: the end-to-end metrics with --trace 0, or the per-layer
// metrics of a traced run with --trace 1. See README.md for the workloads
// and for what each metric means.
//
//	perfbench --workload batch-anti --seed 1 --seconds 20 --trace 0
//
// It is normally started through run.sh, which builds it and caqe-serve
// from the source tree first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The catalogs below
// must match BENCHMARK.json (the smoke tests check this).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ttfr_virtual_s", "virtual_s"},
	{"query_virtual_s", "virtual_s"},
	{"virtual_end_s", "virtual_s"},
	{"avg_satisfaction", "fraction"},
	{"peak_rss_mb", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"wall.run_p50_s", "s"},
	{"wall.ttfr_p50_s", "s"},
	{"wall.query_p50_s", "s"},
	{"wall.mutation_p50_s", "s"},
	{"wall.goodput_qps", "1/s"},
	{"datagen.gen_s", "s"},
	{"baseline.oracle_s", "s"},
	{"partition.partition_s", "s"},
	{"partition.cells", "count"},
	{"region.build_space_s", "s"},
	{"region.regions", "count"},
	{"region.alive_frac", "fraction"},
	{"skycube.build_cuboid_s", "s"},
	{"core.plan_s", "s"},
	{"skycube.dominance_s", "s"},
	{"skycube.skyline_cmps", "count"},
	{"skycube.cmps_per_join_result", "ratio"},
	{"join.join_s", "s"},
	{"join.probes", "count"},
	{"join.results", "count"},
	{"join.hit_frac", "fraction"},
	{"core.schedule_s", "s"},
	{"core.decisions", "count"},
	{"core.defer_frac", "fraction"},
	{"core.discards", "count"},
	{"run.emit_s", "s"},
	{"run.emissions", "count"},
	{"cluster.shard_split_s", "s"},
	{"cluster.shard_max_s", "s"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.merge_s", "s"},
	{"cluster.merge_cmps", "count"},
	{"cluster.merge_survivor_frac", "fraction"},
	{"serve.submit_p99_s", "s"},
	{"serve.cancel_p99_s", "s"},
	{"serve.delete_p50_s", "s"},
	{"serve.rejected_429", "count"},
	{"serve.rejected_503", "count"},
	{"session.rows_streamed", "count"},
	{"session.lag_notices", "count"},
	{"core.cells_touched", "count"},
	{"core.regions_revived", "count"},
	{"loadgen.send_lag_p99_s", "s"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.shed", "count"},
	{"trace.overhead_frac", "fraction"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // measured wall time of the run
	traced   bool
	smoke    bool          // scaled-down inputs, for the benchmark's own tests
	serveBin string        // caqe-serve binary (serve-mixed only)
	limit    time.Duration // goodput latency limit (serve-mixed)
}

// outcome is what a workload run reports: operation counts, failed
// correctness checks, and metric values keyed by catalog name. Metrics a
// workload does not cross are left unset and reported as 0.
type outcome struct {
	attempted, failed int
	values            map[string]float64

	mu       sync.Mutex // problem may be called from several goroutines
	problems []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"batch-anti":    runBatch,
	"sharded-indep": runBatch,
	"serve-mixed":   runServe,
}

// buildResult selects the catalog for the run's mode and fills it from o.
func buildResult(o *outcome, traced bool) result {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "measured wall-clock seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "caqe-serve binary for serve-mixed")
	flag.DurationVar(&cfg.limit, "goodput-limit", 2*time.Second, "latency limit a query must meet to count toward goodput_qps")
	root := flag.String("root", "", "repository root, for the code fingerprint")
	flag.Parse()

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	fp, _ := json.Marshal(machineFingerprint(*root))
	fmt.Printf("fingerprint %s\n", fp)

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", cfg.workload, p)
	}
	line, err := json.Marshal(buildResult(o, cfg.traced))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
