package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// the program. IDs are 1-based indexes into recorder.spans; parent 0 is
// the root.
type span struct {
	name       string
	parent     int
	block      int
	start, end time.Duration // since the recorder's epoch
}

// recorder is the harness's own span recorder: every span is taken from
// outside the program, around the exported call it names. Spans stay in
// memory and are written once, at exit. A nil recorder records nothing,
// so the untraced blocks run the same code with no branches of their own.
// The run loop is a closed loop on one goroutine; the recorder is not
// safe for concurrent use.
type recorder struct {
	epoch    time.Time
	workload string
	seed     int64
	block    int
	spans    []span
}

func newRecorder(workload string, seed int64) *recorder {
	return &recorder{epoch: time.Now(), workload: workload, seed: seed}
}

// start opens a span and returns its id for finish and for children.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{name: name, parent: parent, block: r.block, start: time.Since(r.epoch)})
	return len(r.spans)
}

func (r *recorder) finish(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].end = time.Since(r.epoch)
}

// child records a span whose duration the program reported itself
// (Result.Phases): it is laid out inside parent starting at offset and
// clipped to the parent's end, and returns the offset where it ended.
func (r *recorder) child(name string, parent int, offset, d time.Duration) time.Duration {
	if r == nil {
		return 0
	}
	p := r.spans[parent-1]
	s := span{name: name, parent: parent, block: r.block, start: p.start + offset, end: p.start + offset + d}
	if s.start > p.end {
		s.start = p.end
	}
	if s.end > p.end {
		s.end = p.end
	}
	r.spans = append(r.spans, s)
	return s.end - p.start
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its child spans cover. Children of one
// parent never overlap here (one goroutine, sequential calls), so the
// covered part is the plain sum.
func (r *recorder) selfTimes() map[string]float64 {
	if r == nil {
		return nil
	}
	covered := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		covered[s.parent] += s.end - s.start
	}
	self := make(map[string]float64)
	for i, s := range r.spans {
		self[s.name] += float64(s.end-s.start-covered[i+1]) / float64(time.Millisecond)
	}
	return self
}

// chromeEvent is a complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON (the object form,
// loadable in chrome://tracing and Perfetto). All spans share one thread
// lane: they nest by containment.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": i + 1, "parent": s.parent, "block": s.block,
				"workload": r.workload, "seed": r.seed,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
