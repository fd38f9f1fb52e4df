package main

import (
	"encoding/json"
	"os"
	"time"

	"qcc/internal/backend"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Times are nanoseconds since the recorder started.
type span struct {
	Name   string
	Start  int64
	Dur    int64
	Parent int32 // index into recorder.spans, -1 for a root
	Track  int   // 1: the query path, 2: probe compilations beside it
}

const (
	trackQuery = 1
	trackProbe = 2
)

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced passes share the traced pass's code.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Track: trackQuery})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id and any span still open inside it (an operation that
// fails midway leaves its stage span open).
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	for n := len(r.stack); n > 0 && r.stack[n-1] >= id; n = len(r.stack) {
		open := r.stack[n-1]
		r.spans[open].Dur = now - r.spans[open].Start
		r.stack = r.stack[:n-1]
	}
}

// attach adds a back-end's reported phases as children of parent, laid end
// to end from the parent's start.
func (r *recorder) attach(parent int32, phases []backend.Phase) {
	if r == nil {
		return
	}
	at := r.spans[parent].Start
	for _, p := range phases {
		r.spans = append(r.spans, span{Name: p.Name, Start: at, Dur: int64(p.Dur), Parent: parent, Track: trackQuery})
		at += int64(p.Dur)
	}
}

// probe records a measurement taken beside the query path (a compilation at
// another option level or for the other architecture) on its own track.
func (r *recorder) probe(name string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), Dur: int64(dur), Parent: -1, Track: trackProbe})
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by direct children.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		self := s.Dur - child[i]
		if self < 0 {
			self = 0 // reported phases may exceed the wall clock around them
		}
		out[s.Name] += self
	}
	return out
}

// totals returns the summed duration per span name.
func totals(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.Dur
	}
	return out
}

type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// writeChrome writes spans as Chrome-trace "complete" events (load the file
// in chrome://tracing or ui.perfetto.dev).
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Track}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
