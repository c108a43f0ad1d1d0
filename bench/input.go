package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/source"
	"repro/internal/stream"
)

// Every stream workload publishes the same input: a pool of weather
// tuples generated from the seed, cycled in batches of batchSize, with
// samplingtime overwritten by the tuple's global index so a delivered
// tuple names the batch that carried it.
const (
	poolSize    = 1 << 16
	batchSize   = 64
	poolBatches = poolSize / batchSize

	// Positions in source.WeatherSchema.
	fSamplingTime = 0
	fTemperature  = 1
	fRainRate     = 4

	// rainThreshold is Q1's filter constant (the paper's running example).
	rainThreshold = 50
)

// input is the seeded tuple pool plus the reference answers of Q1 and
// Q2 over it, computed here and never by the program under test.
type input struct {
	// rows holds the pool as plain numbers, one per field: pointer-free,
	// so the collector never scans it. (Kept as tuples it is 35 MB of
	// live pointers, and on one P each mark phase then stalls the
	// generator for a whole time slice.)
	rows   []float64
	types  []stream.FieldType
	digest string

	// q1Cum[k] counts Q1 matches in pool batches [0,k).
	q1Cum [poolBatches + 1]int64
	// q2Avg and q2Max are Q2's per-window answers for one pool batch
	// (the window is one batch: size 64, step 64).
	q2Avg [poolBatches]float64
	q2Max [poolBatches]float64
}

func newInput(seed int64) *input {
	nf := weatherSchema.Len()
	in := &input{rows: make([]float64, 0, poolSize*nf)}
	for i := 0; i < nf; i++ {
		in.types = append(in.types, weatherSchema.Field(i).Type)
	}
	station := source.NewWeatherStation(0, 1000, seed)
	h := sha256.New()
	var buf [8]byte
	for b := 0; b < poolBatches; b++ {
		sum, best, matches := 0.0, math.Inf(-1), int64(0)
		for j := 0; j < batchSize; j++ {
			for _, v := range station.Next().Values {
				x, _ := v.AsFloat()
				in.rows = append(in.rows, x)
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
			row := in.rows[len(in.rows)-nf:]
			sum += row[fTemperature]
			best = math.Max(best, row[fRainRate])
			if row[fRainRate] > rainThreshold {
				matches++
			}
		}
		in.q1Cum[b+1] = in.q1Cum[b] + matches
		in.q2Avg[b] = sum / batchSize
		in.q2Max[b] = best
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in
}

// row is pool row i, cycled.
func (in *input) row(i int64) []float64 {
	nf := len(in.types)
	at := int(i%poolSize) * nf
	return in.rows[at : at+nf]
}

// fill materialises batch b as fresh tuples: the runtime owns a
// published batch, so nothing of an earlier batch may be reused.
func (in *input) fill(b int64) []stream.Tuple {
	nf := len(in.types)
	vals := make([]stream.Value, batchSize*nf)
	ts := make([]stream.Tuple, batchSize)
	for j := range ts {
		i := b*batchSize + int64(j)
		v := vals[j*nf : (j+1)*nf : (j+1)*nf]
		for k, x := range in.row(i) {
			switch in.types[k] {
			case stream.TypeDouble:
				v[k] = stream.DoubleValue(x)
			case stream.TypeInt:
				v[k] = stream.IntValue(int64(x))
			}
		}
		v[fSamplingTime] = stream.TimestampMillis(i)
		ts[j].Values = v
	}
	return ts
}

// q1Count is the number of Q1 deliveries the first nb batches produce.
func (in *input) q1Count(nb int64) int64 {
	return nb/poolBatches*in.q1Cum[poolBatches] + in.q1Cum[nb%poolBatches]
}

// digestOf accumulates deliveries two ways: ordered, a rolling hash
// that fixes the sequence, and multiset, a sum that fixes the contents
// when partitions interleave.
type digestOf struct {
	n        int64
	ordered  uint64
	multiset uint64
}

func (d *digestOf) add(index int64, v float64) {
	x := uint64(index)*0x9E3779B97F4A7C15 ^ math.Float64bits(v)
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	d.n++
	d.ordered = d.ordered*1099511628211 + x
	d.multiset += x
}

// q1Reference folds the reference filter+map over batches [0,nb).
func (in *input) q1Reference(nb int64) digestOf {
	var d digestOf
	for i := int64(0); i < nb*batchSize; i++ {
		if rain := in.row(i)[fRainRate]; rain > rainThreshold {
			d.add(i, rain)
		}
	}
	return d
}
