package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer records bench-side spans around each call into the program.
// Spans stay in memory during the run and are written when it ends; a
// nil tracer (every untraced round) records nothing and reads no clock.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	name   string
	start  int64 // ns since t0
	end    int64
	parent int32 // index of the enclosing span, -1 for none
	id     int64 // batch or request number, -1 for none
}

func newTracer(traced bool, t0 time.Time) *tracer {
	if !traced {
		return nil
	}
	return &tracer{t0: t0, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), parent: parent, id: id})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// durations returns the lengths in ns of the spans called name ("" for
// any) whose parent span is called under ("" for any).
func (t *tracer) durations(name, under string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if (name == "" || s.name == name) && (under == "" || (s.parent >= 0 && t.spans[s.parent].name == under)) {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// overheadShare estimates what recording cost the span called name: the
// spans under it times the measured cost of recording one, over its
// length. (Comparing a traced round's throughput with an untraced one's
// would drown a share of 1% in the 5% two rounds differ by anyway.)
func (t *tracer) overheadShare(name string) float64 {
	if t == nil {
		return 0
	}
	const reps = 1 << 14
	scratch := &tracer{t0: t.t0, spans: make([]span, 0, reps)}
	begin := time.Now()
	for i := 0; i < reps; i++ {
		scratch.end(scratch.begin("calibrate", -1, int64(i)))
	}
	perSpan := float64(time.Since(begin)) / reps
	for i, s := range t.spans {
		if s.name == name {
			return float64(len(t.durations("", name))) * perSpan / float64(t.spans[i].end-t.spans[i].start)
		}
	}
	return 0
}

// maxTraceSpans bounds the trace file: embedded_stream opens two spans
// per batch, some 200k per slice, and the first few thousand batches
// already show the pattern.
const maxTraceSpans = 20000

type traceFile struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Spans     int         `json:"spans_recorded"`
	Truncated int         `json:"spans_not_written"`
	Unit      string      `json:"unit"`
	Rows      []traceSpan `json:"spans"`
}

type traceSpan struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	ID     int64  `json:"id"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	n := min(len(t.spans), maxTraceSpans)
	tf := traceFile{Workload: workload, Seed: seed, Spans: len(t.spans), Truncated: len(t.spans) - n,
		Unit: "ns since child start", Rows: make([]traceSpan, n)}
	for i, s := range t.spans[:n] {
		tf.Rows[i] = traceSpan{Index: i, Name: s.name, Start: s.start, End: s.end, Parent: s.parent, ID: s.id}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
