package main

import (
	"time"

	"satcheck/internal/trace"
)

// span is one timed call the benchmark made into a layer's public function.
// The spans of one check share Req; a check's root span has Parent 0.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Req    int                `json:"req"`
	Start  int64              `json:"start_ns"` // since the recorder's epoch
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	return r.add(name, parent, req, time.Now(), -1)
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch).Nanoseconds()
}

// add records a span whose start and duration are already known; a
// negative duration leaves it open for end.
func (r *recorder) add(name string, parent, req int, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Req: req, Start: start.Sub(r.epoch).Nanoseconds()}
	if d >= 0 {
		s.End = s.Start + d.Nanoseconds()
	}
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// set attaches a count to a span.
func (r *recorder) set(id int, key string, v float64) {
	if r == nil {
		return
	}
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

func (r *recorder) startOf(id int) time.Time {
	return r.epoch.Add(time.Duration(r.spans[id-1].Start))
}

func (r *recorder) all() []span { return r.spans }

// timedSource wraps a trace source and sums the time its readers spend in
// Open and Next: the trace decode cost of every pass a checker makes.
type timedSource struct {
	src     trace.Source
	busy    time.Duration
	records int
}

// Open implements trace.Source.
func (t *timedSource) Open() (trace.Reader, error) {
	t0 := time.Now()
	r, err := t.src.Open()
	t.busy += time.Since(t0)
	if err != nil {
		return nil, err
	}
	return &timedReader{r: r, t: t}, nil
}

type timedReader struct {
	r trace.Reader
	t *timedSource
}

func (tr *timedReader) Next() (trace.Event, error) {
	t0 := time.Now()
	ev, err := tr.r.Next()
	tr.t.busy += time.Since(t0)
	if err == nil {
		tr.t.records++
	}
	return ev, err
}
