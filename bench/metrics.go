package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the checker sees, reported by every
// untraced run. BENCHMARK.json lists the same names, units and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"checks_per_s", "1/s"},
	{"lemmas_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer's time is a share of
// the checks' root spans (its calls' total over the checks' total), so a
// workload that never calls a layer reports a share of 0.
var perLayer = []metricDef{
	{"check_ms", "ms"},
	{"span_coverage", "ratio"},
	{"trace_overhead_frac", "ratio"},
	{"cnf.setup_share", "ratio"},
	{"trace.decode_share", "ratio"},
	{"trace.records", "count"},
	{"trace.mb", "MB"},
	{"tracecheck.export_share", "ratio"},
	{"tracecheck.parse_share", "ratio"},
	{"tracecheck.text_mb", "MB"},
	{"drat.annotate_share", "ratio"},
	{"drat.lrat_parse_share", "ratio"},
	{"kernel.check_share", "ratio"},
	{"kernel.steps", "count"},
	{"kernel.peak_mem_words", "count"},
	{"checker.hybrid_self_share", "ratio"},
	{"checker.built_frac", "ratio"},
	{"checker.resolution_steps", "count"},
	{"checker.peak_mem_words", "count"},
	{"ooc.check_share", "ratio"},
	{"ooc.windows", "count"},
	{"ooc.spilled_clauses", "count"},
	{"ooc.spilled_mb", "MB"},
	{"ooc.peak_mem_words", "count"},
	{"ooc.kernel_ratio", "ratio"},
	{"http.send_share", "ratio"},
	{"server.check_share", "ratio"},
	{"server.overhead_share", "ratio"},
	{"server.http_429", "count"},
	{"store.put_share", "ratio"},
	{"store.get_share", "ratio"},
	{"router.failovers", "count"},
}

// Span names whose summed time is reported as <name>_share.
var shareSpans = []string{
	"trace.decode", "tracecheck.export", "tracecheck.parse", "drat.annotate",
	"drat.lrat_parse", "kernel.check", "ooc.check", "http.send", "server.check",
}

// Phases of a run. Warm-up checks are verified but not timed.
const (
	phaseWarmup = iota
	phaseMeasured
	phaseTraced
)

// sample is one check.
type sample struct {
	Item  int     `json:"item"`
	MS    float64 `json:"ms"`
	Phase int     `json:"phase"`
	Err   string  `json:"err,omitempty"` // transport, HTTP or infrastructure error
	Wrong bool    `json:"wrong,omitempty"`
}

// measurement is what one workload's checking process reports.
type measurement struct {
	Samples []sample `json:"samples"`
	Spans   []span   `json:"spans,omitempty"`
	// PeakRSS is a library child's rssPeaks.peak, in MiB.
	PeakRSS float64 `json:"peak_rss_mib,omitempty"`
	// Extra holds per-layer metrics that are not derived from spans.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// outcome adds what the parent measures around the checking process.
type outcome struct {
	m      *measurement
	setups []time.Duration
	rssMiB float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics derives the user-visible metrics from the measured phase.
func endToEndMetrics(c *corpus, o *outcome) map[string]float64 {
	p := medianPass(c, o.m.Samples)
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	checks, lemmas, seconds := p.totals()
	return map[string]float64{
		"setup_s":        slices.Min(setups),
		"checks_per_s":   checks / seconds,
		"lemmas_per_s":   lemmas / seconds,
		"latency_ms_p50": p.percentile(0.5),
		"latency_ms_p90": p.percentile(0.9),
		"peak_rss_mb":    o.rssMiB,
	}
}

// pass is one pass of the closed loop over a corpus, each input at the
// median latency of its checks in the measured window and counted as often
// as a pass checks it, sorted by that latency.
//
// The checks of one input jitter by a third and more within a window, with
// where garbage collection falls and with what other tenants of the host
// do to its memory. A percentile of the pooled samples puts the p90 of nine
// equal inputs a tenth of the way into the slowest input's checks, where
// its fast tail mixes with the slow tails of the next ones, so it moves
// with the width of the jitter; a mean moves with each stall. An input's
// median moves with the speed of its checks.
type pass []passInput

type passInput struct {
	ms     float64
	weight int
	lemmas int
}

// medianPass builds the pass from the completed checks of the measured
// phase; an input without one is left out.
func medianPass(c *corpus, samples []sample) pass {
	perItem := make([][]float64, len(c.Items))
	for _, s := range samples {
		if s.Phase == phaseMeasured && s.Err == "" {
			perItem[s.Item] = append(perItem[s.Item], s.MS)
		}
	}
	var p pass
	for i, xs := range perItem {
		if len(xs) > 0 {
			p = append(p, passInput{median(xs), max(c.Items[i].Repeat, 1), c.Items[i].Lemmas})
		}
	}
	slices.SortFunc(p, func(a, b passInput) int { return cmp.Compare(a.ms, b.ms) })
	return p
}

// totals is the checks and proof steps of the pass, and the seconds one
// caller takes to make it.
func (p pass) totals() (checks, lemmas, seconds float64) {
	for _, in := range p {
		w := float64(in.weight)
		checks += w
		lemmas += w * float64(in.lemmas)
		seconds += w * in.ms / 1000
	}
	return checks, lemmas, seconds
}

// percentile is the q-th percentile (nearest rank) of the pass's check
// latencies, so always one input's median: with nine inputs, p50 is the
// fifth-fastest input and p90 the slowest.
func (p pass) percentile(q float64) float64 {
	total := 0
	for _, in := range p {
		total += in.weight
	}
	// The tolerance keeps q·total = 9.000000000000002 at rank 9.
	rank := int(math.Ceil(q*float64(total) - 1e-9))
	for _, in := range p {
		if rank -= in.weight; rank <= 0 {
			return in.ms
		}
	}
	return math.NaN()
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, its samples and the process's extra measurements. Every perLayer
// name is present in the result.
func layerMetrics(o *outcome) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	byID := make(map[int]*span, len(o.m.Spans))
	for i := range o.m.Spans {
		byID[o.m.Spans[i].ID] = &o.m.Spans[i]
	}
	var roots []float64
	attrs := map[string][]float64{}
	total := map[string]float64{}
	var rootMS, childMS, hybridDecodeMS float64
	for _, s := range o.m.Spans {
		d := ms(s.dur())
		if s.Parent == 0 {
			roots = append(roots, d)
			rootMS += d
			for k, v := range s.Attrs {
				attrs[k] = append(attrs[k], v)
			}
			continue
		}
		total[s.Name] += d
		p := byID[s.Parent]
		if p.Parent == 0 {
			childMS += d
		}
		if s.Name == "trace.decode" && p.Name == "checker.hybrid" {
			hybridDecodeMS += d
		}
	}
	if rootMS > 0 {
		m["check_ms"] = median(roots)
		m["span_coverage"] = childMS / rootMS
		for _, name := range shareSpans {
			m[name+"_share"] = total[name] / rootMS
		}
		m["checker.hybrid_self_share"] = (total["checker.hybrid"] - hybridDecodeMS) / rootMS
		if total["server.check"] > 0 {
			m["server.overhead_share"] = 1 - m["http.send_share"] - m["server.check_share"]
		}
	}
	for k, v := range attrs {
		m[k] = median(v)
	}
	m["trace_overhead_frac"] = overhead(o.m.Samples)
	for k, v := range o.m.Extra {
		m[k] = v
	}
	return m
}

// overhead compares a pass over the corpus with tracing on against one
// with it off, each pass time being the sum of the per-item mean latency.
func overhead(samples []sample) float64 {
	type acc struct{ off, on, nOff, nOn float64 }
	per := map[int]*acc{}
	for _, s := range samples {
		if s.Err != "" || s.Phase == phaseWarmup {
			continue
		}
		a := per[s.Item]
		if a == nil {
			a = &acc{}
			per[s.Item] = a
		}
		if s.Phase == phaseTraced {
			a.on += s.MS
			a.nOn++
		} else {
			a.off += s.MS
			a.nOff++
		}
	}
	var off, on float64
	for _, a := range per {
		if a.nOff == 0 || a.nOn == 0 {
			continue
		}
		off += a.off / a.nOff
		on += a.on / a.nOn
	}
	if off == 0 {
		return 0
	}
	return on/off - 1
}
