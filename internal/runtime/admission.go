package runtime

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/ratelimit"
)

// Class is a stream's priority class. Under pressure the runtime sheds
// lower classes first: DropNewest/DropOldest evict lowest-class tuples
// before touching higher ones, and with Options.BlockClass set, Block
// applies backpressure only to classes at or above the threshold while
// shedding the rest.
type Class int8

const (
	// BestEffort streams are shed first under overload.
	BestEffort Class = iota
	// Normal is the default class for registered streams.
	Normal
	// Critical streams are shed last; under class-aware policies their
	// tuples evict queued lower-class tuples instead of being dropped.
	Critical

	numClasses = 3
)

// String names the class.
func (c Class) String() string {
	switch c {
	case BestEffort:
		return "besteffort"
	case Normal:
		return "normal"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass reads a class name (as printed by String). The empty
// string parses as Normal.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "besteffort", "best-effort", "be":
		return BestEffort, nil
	case "normal", "":
		return Normal, nil
	case "critical", "crit":
		return Critical, nil
	}
	return Normal, fmt.Errorf("runtime: unknown priority class %q", s)
}

// maxQuotaRate bounds a quota's sustained rate (tuples/second): high
// enough for any real deployment, low enough that burst derivation and
// token arithmetic can never overflow an int.
const maxQuotaRate = 1e12

// StreamConfig is the admission configuration attached to a stream at
// registration: a priority class and an optional token-bucket quota.
// Rate is the sustained admission rate in tuples/second (at most
// maxQuotaRate) and Burst the bucket depth; Rate == 0 means unlimited
// (no bucket).
type StreamConfig struct {
	Class Class
	Rate  float64
	Burst int
}

// StreamOption customises a stream at registration time.
type StreamOption func(*StreamConfig)

// WithClass sets the stream's priority class.
func WithClass(c Class) StreamOption {
	return func(cfg *StreamConfig) { cfg.Class = c }
}

// WithQuota attaches a token-bucket quota: at most rate tuples/second
// sustained, with bursts up to burst tuples. burst <= 0 defaults to one
// second's worth of tokens.
func WithQuota(rate float64, burst int) StreamOption {
	return func(cfg *StreamConfig) {
		cfg.Rate = rate
		cfg.Burst = burst
	}
}

// WithConfig applies a whole StreamConfig at once (the form the
// -admission flag parser produces).
func WithConfig(cfg StreamConfig) StreamOption {
	return func(dst *StreamConfig) { *dst = cfg }
}

func buildConfig(opts []StreamOption) (StreamConfig, error) {
	cfg := StreamConfig{Class: Normal}
	for _, o := range opts {
		o(&cfg)
	}
	return normalizeConfig(cfg)
}

// normalizeConfig validates a StreamConfig and fills derived defaults;
// it is the shared gate of registration (buildConfig) and live
// reconfiguration (Runtime.Reconfigure).
func normalizeConfig(cfg StreamConfig) (StreamConfig, error) {
	if cfg.Class < BestEffort || cfg.Class > Critical {
		return cfg, fmt.Errorf("runtime: invalid priority class %d (want %s..%s)", int(cfg.Class), BestEffort, Critical)
	}
	// NaN fails every comparison, so express the validity range
	// positively: 0 <= rate <= maxQuotaRate rejects NaN and ±Inf too.
	if !(cfg.Rate >= 0 && cfg.Rate <= maxQuotaRate) {
		return cfg, fmt.Errorf("runtime: quota rate %v outside 0..%g tuples/s", cfg.Rate, float64(maxQuotaRate))
	}
	// Normalize the burst default here so the token bucket and the
	// stats rows always agree on the effective value.
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(math.Ceil(cfg.Rate))
	}
	if cfg.Rate == 0 {
		cfg.Burst = 0 // unlimited streams carry no bucket depth
	}
	return cfg, nil
}

// admissionState is a stream's live admission configuration: the
// normalized StreamConfig plus the token bucket enforcing its quota.
// The pair lives behind one atomic pointer on the route, so
// Runtime.Reconfigure swaps class and quota in a single step: a
// publisher observes either the old state or the new one, never a
// mixture.
type admissionState struct {
	cfg    StreamConfig
	bucket *ratelimit.Bucket
}

func newAdmissionState(cfg StreamConfig) *admissionState {
	return &admissionState{cfg: cfg, bucket: ratelimit.New(cfg.Rate, cfg.Burst)}
}

// ParseStreamSpecs reads a comma-separated list of per-stream admission
// specs of the form
//
//	name=class[:rate[:burst]]
//
// e.g. "weather=besteffort:5000:256,gps=critical". Rate is in
// tuples/second (0 = unlimited); burst defaults to one second of rate.
func ParseStreamSpecs(s string) (map[string]StreamConfig, error) {
	out := map[string]StreamConfig{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("runtime: admission spec %q is not name=class[:rate[:burst]]", part)
		}
		fields := strings.Split(spec, ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("runtime: admission spec %q has too many fields", part)
		}
		cls, err := ParseClass(fields[0])
		if err != nil {
			return nil, err
		}
		cfg := StreamConfig{Class: cls}
		if len(fields) > 1 {
			cfg.Rate, err = strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
			// The positive form of the range check rejects NaN and ±Inf,
			// which ParseFloat accepts.
			if err != nil || !(cfg.Rate >= 0 && cfg.Rate <= maxQuotaRate) {
				return nil, fmt.Errorf("runtime: admission spec %q: bad rate %q", part, fields[1])
			}
		}
		if len(fields) > 2 {
			cfg.Burst, err = strconv.Atoi(strings.TrimSpace(fields[2]))
			if err != nil || cfg.Burst < 0 {
				return nil, fmt.Errorf("runtime: admission spec %q: bad burst %q", part, fields[2])
			}
		}
		out[strings.ToLower(name)] = cfg
	}
	return out, nil
}

// PublishVerdict is the admission outcome of one PublishBatch call:
// Offered tuples were presented, Shed were refused by the stream's
// quota before reaching any shard, and Accepted entered shard queues
// (tuples neither shed nor accepted were dropped by the backpressure
// policy).
type PublishVerdict struct {
	Offered  int
	Accepted int
	Shed     int
}

// streamCounters is the per-stream admission accounting, shared between
// the publish path and the shard drains (hence atomics). The
// steady-state invariant after a flush is
//
//	offered == shed + dropped + ingested + errors
type streamCounters struct {
	offered  atomic.Uint64 // schema-valid tuples presented to PublishBatch
	shed     atomic.Uint64 // refused by the stream's quota
	dropped  atomic.Uint64 // shed by the backpressure policy (incoming or evicted)
	ingested atomic.Uint64 // delivered into a shard engine
	errors   atomic.Uint64 // rejected by a shard engine
}
