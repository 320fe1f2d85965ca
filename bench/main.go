// Command bench is satcheck's end-to-end benchmark. It generates every
// input from -seed, checks it from outside the program — through
// satcheck.RunCheck in a child process for the library workloads, through
// the zcheckd HTTP API for the service workloads — verifies every verdict
// against the known answer, and prints each metric as
// "<workload> <metric> <value> <unit>", then one JSON summary line.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 1                     # all six workloads
//	bash bench/run.sh -workload trace-kernel -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -seed 1 -trace 1 -spans spans.json
//	bash bench/run.sh -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"satcheck"
)

// workload is one named set of inputs and the way it is checked.
type workload struct {
	name string
	// corpus writes the inputs under dir; scale divides the out-of-core
	// proof size.
	corpus func(dir string, seed int64, scale int) (*corpus, error)
	method satcheck.Method // library workloads
	// service workloads post method=hybrid checks to zcheckd, routed ones
	// through a one-shard cluster router.
	service, routed bool
}

var workloads = []workload{
	{name: "trace-kernel", corpus: traceCorpus, method: satcheck.Kernel},
	{name: "trace-hybrid", corpus: traceCorpus, method: satcheck.Hybrid},
	{name: "lrat-kernel", corpus: lratCorpus, method: satcheck.Kernel},
	{name: "lrat-ooc", corpus: stressCorpus, method: satcheck.OOC},
	{name: "service-direct", corpus: serviceCorpus, service: true},
	{name: "service-routed", corpus: serviceCorpus, service: true, routed: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(run())
}

func run() int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := flag.String("workload", "all", "workload to run: a name, a comma-separated list, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", float64(bf.RunSeconds), "length of the measured window of each workload (run_seconds of BENCHMARK.json)")
	traceFlag := flag.Int("trace", 0, "1 runs each window half untraced, half traced, and reports the per-layer metrics")
	jsonPath := flag.String("json", "", "also write the results to this JSON file (input of -compare)")
	spansPath := flag.String("spans", "", "with -trace 1, write the spans to this file (default .bench_build/spans.json)")
	compare := flag.Bool("compare", false, "compare two sets of -json results: -compare base1.json,base2.json new1.json,new2.json")
	flag.Parse()

	if *compare {
		return compareMain(bf, flag.Args())
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A reader of our output that goes away must not kill the benchmark
	// before it has stopped zcheckd and removed its files.
	signal.Ignore(syscall.SIGPIPE)
	cfg, cleanup, err := newConfig(root, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()

	var results []*result
	for _, w := range selected {
		r, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.print()
		results = append(results, r)
	}
	if cfg.traced {
		path := *spansPath
		if path == "" {
			path = filepath.Join(root, ".bench_build", "spans.json")
		}
		if err := writeSpans(path, cfg.seed, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *jsonPath != "" {
		if err := writeResults(*jsonPath, cfg, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, correct := summaryLine(results)
	fmt.Println(line)
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: wrong verdicts")
		return 1
	}
	return 0
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		w, err := workloadByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// repoRoot finds the satcheck module root at or above the working
// directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module satcheck\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a satcheck checkout (no go.mod of module satcheck)")
		}
		dir = parent
	}
}

// config is one benchmark invocation.
type config struct {
	root    string // repository root
	tmp     string // this invocation's scratch directory, under .bench_build
	self    string // executable re-run as the library child
	zcheckd string // built on first use
	seed    int64
	window  time.Duration
	traced  bool
	// Tests shorten setupGap and raise scale (1 otherwise) to keep the
	// smoke run short.
	setupGap time.Duration
	scale    int
}

func newConfig(root string, seed int64, window time.Duration, traced bool) (*config, func(), error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return nil, nil, err
	}
	cfg := &config{root: root, tmp: tmp, self: self, seed: seed, window: window, traced: traced,
		setupGap: setupGap, scale: 1}
	return cfg, func() { os.RemoveAll(tmp) }, nil
}

// result is one workload's run.
type result struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Traced        bool              `json:"traced"`
	InputSHA256   string            `json:"input_sha256"`
	Proofs        int               `json:"proofs"`
	Lemmas        int               `json:"lemmas"`
	Bytes         int64             `json:"bytes"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	WrongVerdicts int               `json:"wrong_verdicts"`
	Metrics       map[string]metric `json:"metrics"`
	spans         []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runWorkload(ctx context.Context, cfg *config, w workload) (*result, error) {
	c, o, err := measureWorkload(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	return summarize(w.name, cfg.seed, cfg.traced, c, o)
}

// measureWorkload generates the workload's inputs and runs its window.
func measureWorkload(ctx context.Context, cfg *config, w workload) (*corpus, *outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*cfg.window+2*time.Minute)
	defer cancel()
	dir, err := os.MkdirTemp(cfg.tmp, w.name+"-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	c, err := w.corpus(dir, cfg.seed, cfg.scale)
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	if err := c.digest(); err != nil {
		return nil, nil, err
	}
	if err := c.save(dir); err != nil {
		return nil, nil, err
	}
	var o *outcome
	if w.service {
		if cfg.zcheckd == "" {
			if cfg.zcheckd, err = buildZcheckd(ctx, cfg.root, cfg.tmp); err != nil {
				return nil, nil, err
			}
		}
		o, err = runService(ctx, cfg.zcheckd, dir, c, w.routed, cfg.setupGap, cfg.window, cfg.traced)
	} else {
		o, err = runLibrary(ctx, cfg.self, w.name, dir, cfg.setupGap, cfg.window, cfg.traced)
	}
	return c, o, err
}

// summarize reports a run's end-to-end metrics, or with traced its
// per-layer metrics.
func summarize(name string, seed int64, traced bool, c *corpus, o *outcome) (*result, error) {
	r := &result{Workload: name, Seed: seed, Traced: traced, InputSHA256: c.SHA256,
		Metrics: map[string]metric{}, spans: o.m.Spans}
	r.Proofs, r.Lemmas, r.Bytes = c.summary()
	for _, s := range o.m.Samples {
		r.Attempted++
		if s.Err != "" {
			r.Failed++
		}
		if s.Wrong {
			r.WrongVerdicts++
		}
	}
	defs, values := endToEnd, map[string]float64(nil)
	if traced {
		defs, values = perLayer, layerMetrics(o)
	} else {
		values = endToEndMetrics(c, o)
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s is %v: no check completed (%d of %d failed)", d.name, v, r.Failed, r.Attempted)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

func (r *result) print() {
	w := r.Workload
	fmt.Printf("%s input_sha256 %s\n", w, r.InputSHA256)
	fmt.Printf("%s proofs %d count\n%s lemmas %d count\n%s bytes %d B\n", w, r.Proofs, w, r.Lemmas, w, r.Bytes)
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", w, d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	fmt.Printf("%s wrong_verdicts %d count\n", w, r.WrongVerdicts)
	fmt.Printf("%s failed_frac %s ratio\n", w, strconv.FormatFloat(float64(r.Failed)/float64(r.Attempted), 'g', -1, 64))
}

// summaryLine is the last line of standard output. With one workload its
// metrics carry their plain names; with several, "<workload>/<metric>".
func summaryLine(results []*result) (string, bool) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.WrongVerdicts == 0
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(results) > 1 {
				k = r.Workload + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // every value was checked finite in summarize
	}
	return string(b), out.Correct
}

func writeResults(path string, cfg *config, results []*result) error {
	return writeJSON(path, map[string]any{"seed": cfg.seed, "seconds": cfg.window.Seconds(),
		"traced": cfg.traced, "results": results})
}

func writeSpans(path string, seed int64, results []*result) error {
	type workloadSpans struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	var all []workloadSpans
	for _, r := range results {
		all = append(all, workloadSpans{r.Workload, r.spans})
	}
	return writeJSON(path, map[string]any{"seed": seed, "workloads": all})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
