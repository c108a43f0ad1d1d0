package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Publish-path stage indices, shared by the sharded runtime (which
// stamps queue_wait and backend) and the dsms engine (seal, pipeline,
// push) so one span can cross the shard queue into the engine without
// re-mapping.
const (
	// StageQueueWait: publish enqueue -> shard worker drain (includes
	// backpressure block time).
	StageQueueWait = iota
	// StageSeal: batch normalization plus per-stream sequence/arrival
	// sealing.
	StageSeal
	// StagePipeline: the operator chains of every query deployed on the
	// batch's stream, summed.
	StagePipeline
	// StagePush: delivery of every query's outputs to its consumers,
	// summed.
	StagePush
	// StageBackend: the remote-shard RPC for batches bound for a dsmsd
	// process (replaces seal/pipeline/push, which happen out-of-process).
	StageBackend

	numPublishStages
)

// PublishStages names the publish-path stages, indexed by the Stage*
// constants.
var PublishStages = []string{"queue_wait", "seal", "pipeline", "push", "backend"}

// MaxSpanStages bounds the stages a single tracer may define; spans
// embed fixed arrays of this size so sampling never allocates in
// steady state.
const MaxSpanStages = 8

// Tracer hands out sampled Spans and feeds their stage durations into
// per-stage histograms plus an end-to-end histogram. A nil *Tracer is
// valid and never samples; a tracer built over a nil registry still
// issues spans (stage durations remain readable via Span.Duration) but
// records nothing — the form the PEP uses when telemetry is off.
type Tracer struct {
	shift uint // sample 1 in 2^shift
	n     atomic.Uint64
	pool  sync.Pool

	stages  []string
	hists   []*Histogram // nil slice when reg == nil
	e2e     *Histogram
	sampled *Counter
}

// NewTracer builds a tracer. Metric families are registered as
// <name>_stage_seconds{stage=...} per stage plus <name>_e2e_seconds
// and <name>_traces_total. sampleEvery is rounded up to a power of two
// (1-in-2^k sampling costs one atomic add and a mask); values <= 1
// sample every span.
func NewTracer(reg *Registry, name string, stages []string, sampleEvery int) *Tracer {
	if len(stages) > MaxSpanStages {
		panic("telemetry: too many tracer stages")
	}
	tr := &Tracer{stages: stages, shift: sampleShift(sampleEvery)}
	tr.pool.New = func() any { return &Span{} }
	if reg != nil {
		tr.hists = make([]*Histogram, len(stages))
		for i, st := range stages {
			tr.hists[i] = reg.Histogram(name+"_stage_seconds",
				"Per-stage latency of sampled "+name+" traces.", nil, L("stage", st))
		}
		tr.e2e = reg.Histogram(name+"_e2e_seconds",
			"End-to-end latency of sampled "+name+" traces.", nil)
		tr.sampled = reg.Counter(name+"_traces_total",
			"Traces sampled by the "+name+" tracer.")
	}
	return tr
}

// NewPublishTracer builds the publish-path tracer over the shared
// stage set.
func NewPublishTracer(reg *Registry, sampleEvery int) *Tracer {
	return NewTracer(reg, "exacml_publish", PublishStages, sampleEvery)
}

func sampleShift(every int) uint {
	if every <= 1 {
		return 0
	}
	return uint(bits.Len(uint(every - 1))) // round up to the next power of two
}

// SampleEvery reports the effective sampling period (a power of two).
func (tr *Tracer) SampleEvery() uint64 {
	if tr == nil {
		return 0
	}
	return 1 << tr.shift
}

func (tr *Tracer) get() *Span {
	sp := tr.pool.Get().(*Span)
	sp.tr = tr
	tr.sampled.Inc()
	return sp
}

// Sample returns a Span for 1 in SampleEvery calls, nil otherwise.
// Costs one atomic add and a mask on the unsampled path.
func (tr *Tracer) Sample() *Span {
	if tr == nil {
		return nil
	}
	if tr.shift != 0 && tr.n.Add(1)&(1<<tr.shift-1) != 0 {
		return nil
	}
	return tr.get()
}

// SampleCrossing folds the sampling decision into a counter the caller
// already maintains: it samples when the interval (before, after]
// crosses a multiple of SampleEvery. The engine hot path pays zero
// extra atomics this way — its ingested-tuples counter doubles as the
// sampling clock.
func (tr *Tracer) SampleCrossing(before, after uint64) *Span {
	if tr == nil {
		return nil
	}
	if tr.shift != 0 && before>>tr.shift == after>>tr.shift {
		return nil
	}
	return tr.get()
}

// Span is one sampled trace: per-stage start timestamps and durations.
// A span travels with its batch across goroutines (publisher -> shard
// worker, which runs the engine); every handoff happens through a mutex
// or a channel, which orders the stamps. All methods are nil-safe.
type Span struct {
	tr    *Tracer
	start [MaxSpanStages]int64
	dur   [MaxSpanStages]int64
	first int64
	last  int64
}

// Begin stamps the start of a stage.
func (s *Span) Begin(stage int) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.start[stage] = now
	if s.first == 0 {
		s.first = now
	}
}

// End stamps the end of a stage, adding its duration (clamped to at
// least 1ns so a recorded stage is distinguishable from an unreached
// one) to what the stage already recorded: a stage begun and ended
// once per query sums over the queries. End without a matching Begin
// only advances the span's end-to-end clock.
func (s *Span) End(stage int) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	if st := s.start[stage]; st != 0 {
		d := now - st
		if d <= 0 {
			d = 1
		}
		s.dur[stage] += d
		s.start[stage] = 0
	}
	s.last = now
}

// CloseOpen ends every stage that was begun but not ended; callers
// with many early returns use it in a deferred cleanup instead of
// spelling End at each return site.
func (s *Span) CloseOpen() {
	if s == nil {
		return
	}
	for i := range s.start {
		if s.start[i] != 0 {
			s.End(i)
		}
	}
}

// Duration reports a stage's recorded duration (0 if unreached).
func (s *Span) Duration(stage int) time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.dur[stage])
}

// Finish feeds the recorded stages into the tracer's histograms and
// recycles the span. The span must not be used afterwards. Finish on
// nil or an already-finished span is a no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	tr := s.tr
	if tr == nil {
		return
	}
	if tr.hists != nil {
		for i := range tr.stages {
			if d := s.dur[i]; d > 0 {
				tr.hists[i].Observe(time.Duration(d))
			}
		}
		if s.first != 0 && s.last > s.first {
			tr.e2e.Observe(time.Duration(s.last - s.first))
		}
	}
	*s = Span{}
	tr.pool.Put(s)
}
