package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json, at the repository root,
// that the runner, the comparison and the tests read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bf := &benchmarkFile{}
	if err := json.Unmarshal(b, bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// runSet maps workload → metric → one value per run.
type runSet map[string]map[string][]float64

func loadRunSet(paths []string) (runSet, error) {
	set := runSet{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f struct {
			Results []result `json:"results"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range f.Results {
			if set[r.Workload] == nil {
				set[r.Workload] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				set[r.Workload][k] = append(set[r.Workload][k], m.Value)
			}
		}
	}
	return set, nil
}

// judge classifies the change from runs a to runs b of one metric. It is
// unresolved when either side's quartile spread exceeds the bound, unless
// every run of b is better than every run of a.
func judge(a, b []float64, bound float64, lowerIsBetter bool) string {
	better := func(x, y float64) bool { // x better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	gain := median(b)/median(a) - 1
	if lowerIsBetter {
		gain = -gain
	}
	switch {
	case max(spread(a), spread(b)) > bound && !allBetter:
		return "unresolved"
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "same"
}

// compareMain prints, per workload and end-to-end metric, both medians,
// their ratio and the verdict against the bound in BENCHMARK.json. It
// exits 1 when any metric is worse.
func compareMain(bf *benchmarkFile, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base1.json[,base2.json...] new1.json[,new2.json...]")
		return 2
	}
	var sets [2]runSet
	for i, arg := range args {
		var err error
		if sets[i], err = loadRunSet(strings.Split(arg, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	worse := 0
	fmt.Printf("%-15s %-15s %12s %12s %7s %7s %7s %6s  %s\n",
		"workload", "metric", "base", "new", "ratio", "spread0", "spread1", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, e := range bf.EndToEnd {
			a, b := sets[0][w.Name][e.Name], sets[1][w.Name][e.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(a, b, e.Bound, e.Better == "lower")
			if v == "worse" {
				worse++
			}
			fmt.Printf("%-15s %-15s %12.5g %12.5g %7.4f %7.4f %7.4f %6.3f  %s\n",
				w.Name, e.Name, median(a), median(b), median(b)/median(a), spread(a), spread(b), e.Bound, v)
		}
	}
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than the bound\n", worse)
		return 1
	}
	return 0
}
