// Command satbench is the repository's end-to-end benchmark.  It times
// the public calls of the ATPG library and of the satpgd service from
// outside the program, checks every output, and prints one JSON result
// line last:
//
//	bash satbench/run.sh --workload table1-cssg --seed 1 --seconds 30 --trace 0
//
// --workload all runs the three workloads below in turn and prints
// every one's metrics.
//
// Workloads, and the per-layer metrics each should move:
//
//	table1-cssg    the paper's Table-1 suite (24 circuits, both stuck-at
//	               models) through Abstract, GenerateCtx, CompactProgram
//	               and ValidateOnTester: core.build_s, atpg.fallback_s,
//	               atpg.other_s and tester.validate_s carry pipeline_s;
//	               podem.* and fsim.s stay small.
//	iscas-direct   s349 parsed from text, both fault universes, through
//	               Run (direct flow), CompactProgram and ValidateDirect:
//	               podem.* and fsim.* carry pipeline_s and
//	               fault_coverage_pct; core.*, atpg.fallback_* and
//	               tester.* stay 0.
//	service-audit  2 closed-loop clients auditing s953 through an
//	               in-process satpgd with a memory-only result store:
//	               fsim.*, service.* and resultstore.* carry query_p50_ms,
//	               query_p95_ms and queries_per_s; no generation layer runs.
//
// A query is one HTTP request in service-audit and one case (a circuit
// under each of its fault models) in the pipeline workloads, which run
// every case once per pass.  The seed drives satpg.Options.Seed, the
// service-audit test sets and request order.
//
// With --trace 0 the result holds the end-to-end metrics; --trace 1 runs
// a separate traced measurement whose result holds the per-layer
// metrics, and writes its spans under -out when it ends.  Run the
// benchmark's own tests with `go test ./...` in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	satpg "repro"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: circuit files are read from here
	out      string // span files are written here
	runID    string
	small    bool // tiny inputs and a single set-up, for the benchmark's own tests

	// Test seams: corrupt a finished generation result before it is
	// validated, or wrap the service's handler, so the tests can check
	// that bad outputs raise the failure count.
	tamperResult func(*satpg.Result)
	wrapHandler  func(http.Handler) http.Handler
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome collects a run's operation counts and metrics.
type outcome struct {
	attempted, failed int
	errs              []string
	samples           int // latency samples behind query_p50_ms/p95
	e2e, layer        map[string]metric
}

func (o *outcome) attempt() { o.attempted++ }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the end-to-end metrics every --trace 0 run reports.
var endToEnd = []string{"setup_s", "pipeline_s", "fault_coverage_pct", "peak_rss_mb", "query_p50_ms", "query_p95_ms", "queries_per_s"}

// perLayer lists the per-layer metrics every --trace 1 run reports,
// with their units.  A layer a workload does not use reads 0.
var perLayer = []struct{ name, unit string }{
	{"netlist.parse_s", "s"},
	{"core.build_s", "s"}, {"core.states", "count"}, {"core.edges", "count"},
	{"atpg.generate_s", "s"}, {"atpg.random_found", "count"}, {"atpg.collateral_found", "count"},
	{"atpg.fallback_calls", "count"}, {"atpg.fallback_s", "s"}, {"atpg.fallback_found_ratio", "ratio"},
	{"atpg.other_s", "s"},
	{"podem.s", "s"}, {"podem.targeted", "count"}, {"podem.found", "count"},
	{"podem.found_per_targeted", "ratio"}, {"podem.decisions", "count"},
	{"podem.backtracks", "count"}, {"podem.settles", "count"},
	{"fsim.s", "s"}, {"fsim.patterns", "count"}, {"fsim.gate_evals", "count"},
	{"fsim.evals_per_pattern", "count"}, {"fsim.trace_cache_hit_ratio", "ratio"},
	{"compact.s", "s"}, {"compact.tests_before", "count"}, {"compact.tests_after", "count"},
	{"test_vectors", "count"},
	{"tester.validate_s", "s"}, {"tester.trials", "count"}, {"atpg.verify_direct_s", "s"},
	{"service.handler_ms", "ms"}, {"service.wire_ms", "ms"},
	{"service.errors", "count"}, {"service.encode_failures", "count"},
	{"resultstore.hits", "count"}, {"resultstore.misses", "count"},
	{"resultstore.hit_ratio", "ratio"}, {"resultstore.puts", "count"},
	{"trace.pipeline_s", "s"}, {"trace.glue_s", "s"}, {"trace.overhead_s", "s"},
}

func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	return m
}

// seedCycle bounds the distinct generation seeds: the pipeline outputs
// of every seed in the cycle are recorded in expected.json, so the
// check against recorded values runs for any --seed.
const seedCycle = 32

// optionSeed maps the workload seed to satpg.Options.Seed.
func optionSeed(seed int64) int64 {
	s := seed % seedCycle
	if s < 0 {
		s += seedCycle
	}
	return 1 + s
}

//go:embed expected.json
var expectedJSON []byte

// recorded returns the pipeline totals recorded for the seed.
func recorded(workload string, seed int64, small bool) (totals, bool) {
	if small {
		return totals{}, false
	}
	var all map[string]map[string]totals
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return totals{}, false
	}
	t, ok := all[workload][strconv.FormatInt(optionSeed(seed), 10)]
	return t, ok
}

func run(cfg *config) (*outcome, error) {
	o := &outcome{}
	var err error
	if spec, ok := pipelines[cfg.workload]; ok {
		err = runPipeline(cfg, spec, o)
	} else if cfg.workload == "service-audit" {
		err = runAudit(cfg, o)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want table1-cssg, iscas-direct, service-audit or all)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	if o.attempted == 0 {
		o.attempt()
		o.fail("no operation ran")
	}
	return o, nil
}

func main() {
	cfg := &config{}
	flag.StringVar(&cfg.workload, "workload", "", "table1-cssg, iscas-direct, service-audit or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	record := flag.Bool("record", false, "print the pipeline totals of every seed in the cycle as expected.json")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "satbench: -seconds must be ≥ 0 and -trace 0 or 1")
		os.Exit(2)
	}
	if *record {
		if err := recordAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "satbench:", err)
			os.Exit(1)
		}
		return
	}

	// "all" runs every workload in turn and ends with one result line
	// holding each workload's metrics under "<workload>.<metric>".
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = allWorkloads
	}
	env := environment()
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		c := *cfg
		c.workload = name
		c.runID = fmt.Sprintf("%s-seed%d-trace%d", name, c.seed, *traceFlag)
		fmt.Printf("# %s workload=%s seed=%d seconds=%g trace=%d\n", env, name, c.seed, c.seconds, *traceFlag)
		o, err := run(&c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "satbench:", err)
			os.Exit(1)
		}
		r := printResult(os.Stdout, &c, o, env)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	if len(names) > 1 {
		fmt.Printf("# failed_pct %.4g across all workloads (%d of %d operations)\n", pct(all.Failed, all.Attempted), all.Failed, all.Attempted)
		printJSON(os.Stdout, all)
	}
}

var allWorkloads = []string{"table1-cssg", "iscas-direct", "service-audit"}

// printResult prints one readable line per metric, then the JSON
// result line, and returns the result.
func printResult(w io.Writer, cfg *config, o *outcome, env string) result {
	metrics := o.e2e
	if cfg.trace {
		metrics = o.layer
	}
	for _, e := range o.errs {
		fmt.Fprintln(w, "# FAILED:", e)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		note := ""
		switch {
		case n == "query_p50_ms" || n == "query_p95_ms":
			note = fmt.Sprintf("  (n=%d; %s)", o.samples, env)
		case m.Unit == "s" || m.Unit == "ms" || m.Unit == "1/s":
			note = "  (" + env + ")"
		}
		fmt.Fprintf(w, "# %-28s %14.6g %-6s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "# failed_pct %.4g (%d of %d operations)\n", pct(o.failed, o.attempted), o.failed, o.attempted)
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	printJSON(w, r)
	return r
}

func printJSON(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// recordAll runs the reference pass of each pipeline workload for every
// seed in the cycle and writes the totals as expected.json.
func recordAll(cfg *config, w io.Writer) error {
	all := map[string]map[string]totals{}
	for name, spec := range pipelines {
		c := *cfg
		c.workload = name
		cases, err := spec.load(&c, nil)
		if err != nil {
			return err
		}
		all[name] = map[string]totals{}
		for s := int64(0); s < seedCycle; s++ {
			opts := spec.options(s)
			o := &outcome{}
			p := runPass(&c, spec, cases, opts, nil, o)
			if o.failed > 0 {
				return fmt.Errorf("%s seed %d: %s", name, s, strings.Join(o.errs, "; "))
			}
			all[name][strconv.FormatInt(opts.Seed, 10)] = p.totals()
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// environment names what every wall-clock number depends on.
func environment() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// resetPeakRSS restarts the kernel's peak-RSS mark of this process
// (Linux), so peakRSSMB measures from here on.  Peak RSS of a Go
// process moves with GC timing; the benchmark reports the median of
// per-pass peaks rather than one whole-run maximum.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the mark then covers the whole run
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Set-up takes milliseconds, so one sample would be noise: it is
// repeated at least setupMinReps times and for setupBudget.
const (
	setupMinReps = 5
	setupBudget  = time.Second
)

// repeatSetup runs set-up repeatedly (once for a small run), returning
// each run's seconds.
func repeatSetup(cfg *config, f func() error) ([]float64, error) {
	var out []float64
	begin := time.Now()
	for len(out) == 0 || (!cfg.small && (len(out) < setupMinReps || time.Since(begin) < setupBudget) && len(out) < 1000) {
		start := time.Now()
		if err := f(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
