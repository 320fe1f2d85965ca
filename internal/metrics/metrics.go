// Package metrics renders the Prometheus text exposition format for
// zcheckd and the cluster router, stdlib only: one fixed-bucket histogram
// and one writer for counters, gauges, labelled series and histograms.
// Counter and gauge values stay in their owners' atomics, so an update on
// the hot path is one atomic add.
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram counts int64 observations into fixed buckets; the writer makes
// the counts cumulative. A histogram of seconds observes nanoseconds and
// renders its bounds and sum in seconds.
type Histogram struct {
	seconds bool
	bounds  []int64        // inclusive upper bounds, ascending
	counts  []atomic.Int64 // one cell per bound, then +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

// NewHistogram returns a histogram over the ascending inclusive upper
// bounds; seconds makes it a histogram of seconds.
func NewHistogram(seconds bool, bounds ...int64) *Histogram {
	return &Histogram{seconds: seconds, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// float renders v in the histogram's unit.
func (h *Histogram) float(v int64) float64 {
	if h.seconds {
		return time.Duration(v).Seconds()
	}
	return float64(v)
}

// Handler serves what write renders as the text exposition format.
func Handler(write func(io.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	}
}

// Writer writes metric families: each its HELP and TYPE lines, then its
// samples.
type Writer struct {
	w    io.Writer
	name string // of the samples Sample writes
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Family writes the HELP and TYPE lines of a family; Sample then writes
// its samples.
func (w *Writer) Family(name, typ, help string) *Writer {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	w.name = name
	return w
}

// Sample writes one sample; labels alternate label names and values.
func (w *Writer) Sample(v int64, labels ...string) {
	io.WriteString(w.w, w.name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(w.w, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
		sep = ","
	}
	if sep == "," {
		io.WriteString(w.w, "}")
	}
	fmt.Fprintf(w.w, " %d\n", v)
}

// labelEscaper escapes a label value as the text format defines: a
// backslash, a double quote and a line feed, and nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Counter writes a counter without labels.
func (w *Writer) Counter(name, help string, v int64) { w.Family(name, "counter", help).Sample(v) }

// Gauge writes a gauge without labels.
func (w *Writer) Gauge(name, help string, v int64) { w.Family(name, "gauge", help).Sample(v) }

// Histogram writes h: cumulative buckets up to +Inf, then _sum and _count.
func (w *Writer) Histogram(name, help string, h *Histogram) {
	w.Family(name, "histogram", help)
	w.name = name + "_bucket"
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		w.Sample(cum, "le", fmt.Sprint(h.float(b)))
	}
	w.Sample(cum+h.counts[len(h.bounds)].Load(), "le", "+Inf")
	s := h.sum.Load()
	sum := fmt.Sprint(s)
	if h.seconds {
		sum = fmt.Sprint(h.float(s))
	}
	fmt.Fprintf(w.w, "%s_sum %s\n%s_count %d\n", name, sum, name, h.count.Load())
}
