package runtime

// The merge explorer drives the merge algebra (mergeAlg) through the
// schedules the publisher and the shards allow and checks each against
// the single-shard answer.
//
// A scenario fixes a tuple sequence, each tuple's partition and the
// publish batches. Every partition's record stream is generated for
// real: one dsms.Engine per partition runs the stage plan, fed its
// bucket of each batch. The reference is the unsplit query run over the
// whole sequence. The publisher is a program of stores and enqueues per
// batch. pubFixed is Runtime.PublishBatchVerdict's order: every A_p,
// then G, then the enqueues. pubTorn is the order it replaced: G first,
// then each partition's A_p with its enqueue. A schedule interleaves
// the program with the partitions' records. After each record the
// stage observes the frontier: it loads G, then every A_p, and the
// publisher may run between those loads.
//
// Each step is checked twice. No release may pass the settled frontier
// S, the position just below the first one some partition has yet to
// deliver records for. Each emission must equal the reference's next
// one. A state that passed both checks is fixed by its key (records
// consumed, publisher position, emissions, last observation, last
// release), so the exhaustive walk visits each key once and still
// covers every schedule. A failing schedule prints as its event list.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

func exploreSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "key", Type: stream.TypeString},
		stream.Field{Name: "i", Type: stream.TypeInt},
		stream.Field{Name: "d", Type: stream.TypeDouble},
	)
}

var exploreAggs = []dsms.AggSpec{
	{Attr: "i", Func: dsms.AggCount},
	{Attr: "d", Func: dsms.AggSum},
	{Attr: "i", Func: dsms.AggMax},
	{Attr: "d", Func: dsms.AggLastVal},
}

// exploreCase is one scenario: tuple n goes to partition part[n] with
// arrival time 10*(n+1) (or arrival[n] when set), published in batches
// of the given sizes.
type exploreCase struct {
	name    string
	query   *dsms.QueryGraph
	part    []int
	arrival []int64
	batches []int
}

func partialQuery(size, step int64) *dsms.QueryGraph {
	return dsms.NewQueryGraph("s", dsms.NewAggregateBox(
		dsms.WindowSpec{Type: dsms.WindowTuple, Size: size, Step: step}, exploreAggs...))
}

func timeRelayQuery(size, step int64) *dsms.QueryGraph {
	return dsms.NewQueryGraph("s", dsms.NewAggregateBox(
		dsms.WindowSpec{Type: dsms.WindowTime, Size: size, Step: step}, exploreAggs...))
}

func filterRelayQuery(size, step int64) *dsms.QueryGraph {
	return dsms.NewQueryGraph("s",
		dsms.NewFilterBox(expr.MustParse("i != 3")),
		dsms.NewAggregateBox(dsms.WindowSpec{Type: dsms.WindowTuple, Size: size, Step: step}, exploreAggs...))
}

// pubOp is one step of the publisher: 'A' stores A_p, 'G' stores G,
// 'E' enqueues partition p's bucket of batch b.
type pubOp struct {
	kind byte
	p, b int
	val  uint64
}

func (o pubOp) String() string {
	switch o.kind {
	case 'A':
		return fmt.Sprintf("publish: A%d = %d", o.p, o.val)
	case 'G':
		return fmt.Sprintf("publish: G = %d", o.val)
	}
	return fmt.Sprintf("publish: enqueue batch %d to p%d", o.b, o.p)
}

// pubFixed is the publish order of Runtime.PublishBatchVerdict.
func pubFixed(b int, last uint64, tails []uint64) []pubOp {
	var ops []pubOp
	for p, a := range tails {
		if a > 0 {
			ops = append(ops, pubOp{kind: 'A', p: p, val: a})
		}
	}
	ops = append(ops, pubOp{kind: 'G', val: last})
	for p, a := range tails {
		if a > 0 {
			ops = append(ops, pubOp{kind: 'E', p: p, b: b})
		}
	}
	return ops
}

// pubTorn is the publish order that let a reader pair a new G with an
// old A_p: G advanced during stamping, and each A_p was stored just
// before its bucket's enqueue.
func pubTorn(b int, last uint64, tails []uint64) []pubOp {
	ops := []pubOp{{kind: 'G', val: last}}
	for p, a := range tails {
		if a > 0 {
			ops = append(ops, pubOp{kind: 'A', p: p, val: a}, pubOp{kind: 'E', p: p, b: b})
		}
	}
	return ops
}

type explorer struct {
	tb     testing.TB
	newAlg func() *mergeAlg
	ops    []pubOp
	recs   [][]mergeEvent // decoded records, by partition
	labels [][]string     // recs' event-list labels
	first  [][]uint64     // first[p][i]: first position of the bucket record i came from
	gAt    []uint64       // G after the first pc ops
	aAt    [][]uint64     // A_p after the first pc ops
	avail  [][]int        // records of p enqueued by the first pc ops
	want   []stream.Tuple
	memo   map[string]float64
}

type exploreNode struct {
	alg     *mergeAlg
	idx     []int // records consumed, by partition
	pc      int   // publisher ops executed
	emitted int
	path    *schedule
}

// schedule is a node of the event list that led to a state; siblings
// share their prefix.
type schedule struct {
	event string
	prev  *schedule
}

func (s *schedule) then(event string) *schedule { return &schedule{event, s} }

func (s *schedule) String() string {
	var events []string
	for ; s != nil; s = s.prev {
		events = append(events, s.event)
	}
	slices.Reverse(events)
	return strings.Join(events, "\n  ")
}

func newExplorer(t testing.TB, c exploreCase, publish func(b int, last uint64, tails []uint64) []pubOp) *explorer {
	t.Helper()
	schema := exploreSchema()
	nparts := slices.Max(c.part) + 1
	ts := make([]stream.Tuple, len(c.part))
	for n := range ts {
		ts[n] = stream.NewTuple(stream.StringValue("k"),
			stream.IntValue(int64(n*7%11-3)), stream.DoubleValue(float64(n*5%13)))
		ts[n].Seq = uint64(n + 1)
		ts[n].ArrivalMillis = int64(10 * (n + 1))
		if c.arrival != nil {
			ts[n].ArrivalMillis = c.arrival[n]
		}
	}
	want, _, err := dsms.RunGraphOnSlice(c.query, schema, ts)
	if err != nil {
		t.Fatal(err)
	}
	mode, staged, err := dsms.PlanStage(c.query)
	if err != nil || !staged {
		t.Fatalf("query does not stage: %v", err)
	}
	x := &explorer{
		tb: t,
		newAlg: func() *mergeAlg {
			m, err := newMergeAlg(mode, c.query, schema, DefaultMergeBuffer, 0, make([]uint64, nparts))
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		recs:   make([][]mergeEvent, nparts),
		labels: make([][]string, nparts),
		first:  make([][]uint64, nparts),
		want:   want,
		memo:   map[string]float64{},
	}
	// The publisher's program. heads[b][p] is the first position of
	// batch b routed to p, tail[p] the last (0: none).
	var heads [][]uint64
	off := 0
	for b, n := range c.batches {
		head, tail := make([]uint64, nparts), make([]uint64, nparts)
		for i := off; i < off+n; i++ {
			if p := c.part[i]; head[p] == 0 {
				head[p] = uint64(i + 1)
			}
			tail[c.part[i]] = uint64(i + 1)
		}
		off += n
		heads = append(heads, head)
		x.ops = append(x.ops, publish(b, uint64(off), tail)...)
	}
	byBatch := exploreRecords(t, c, mode, ts, nparts)
	dec := x.newAlg()
	for p := range byBatch {
		for b, recs := range byBatch[p] {
			for _, rec := range recs {
				ev, err := dec.decode(p, rec)
				if err != nil {
					t.Fatal(err)
				}
				x.recs[p] = append(x.recs[p], ev)
				x.first[p] = append(x.first[p], heads[b][p])
				x.labels[p] = append(x.labels[p], eventLabel(ev))
			}
		}
	}
	// The frontier and the enqueued records after each program prefix.
	g, a, avail := uint64(0), make([]uint64, nparts), make([]int, nparts)
	for pc := 0; ; pc++ {
		x.gAt = append(x.gAt, g)
		x.aAt = append(x.aAt, slices.Clone(a))
		x.avail = append(x.avail, slices.Clone(avail))
		if pc == len(x.ops) {
			break
		}
		switch op := x.ops[pc]; op.kind {
		case 'A':
			a[op.p] = op.val
		case 'G':
			g = op.val
		case 'E':
			avail[op.p] += len(byBatch[op.p][op.b])
		}
	}
	return x
}

// exploreRecords runs each partition's stage plan on its own engine,
// fed its bucket of every batch, and returns the records by partition
// and batch.
func exploreRecords(t testing.TB, c exploreCase, mode dsms.StageMode, ts []stream.Tuple, nparts int) [][][]stream.Tuple {
	t.Helper()
	out := make([][][]stream.Tuple, nparts)
	for p := range out {
		e := dsms.NewEngine(fmt.Sprintf("explore-p%d", p))
		defer e.Close()
		if err := e.CreateStream("s", exploreSchema()); err != nil {
			t.Fatal(err)
		}
		g := c.query.Clone()
		if mode == dsms.StageRelay {
			g.Boxes = g.Boxes[:len(g.Boxes)-1]
		}
		g.Stage = &dsms.StageSpec{Mode: mode}
		d, err := e.Deploy(g)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := e.Subscribe(d.ID)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, n := range c.batches {
			var bucket, recs []stream.Tuple
			for i := off; i < off+n; i++ {
				if c.part[i] == p {
					bucket = append(bucket, ts[i])
				}
			}
			off += n
			if len(bucket) > 0 {
				if err := e.IngestBatch("s", bucket); err != nil {
					t.Fatal(err)
				}
				e.Flush()
				for len(sub.C) > 0 {
					recs = append(recs, <-sub.C)
				}
			}
			out[p] = append(out[p], recs)
		}
	}
	return out
}

func eventLabel(ev mergeEvent) string {
	switch {
	case ev.item.at == 0:
		return fmt.Sprintf("p%d: watermark %d", ev.p, ev.pos)
	case ev.item.part != nil:
		return fmt.Sprintf("p%d: window %d partial, count %d", ev.p, ev.item.part.Win, ev.item.part.Count)
	}
	return fmt.Sprintf("p%d: row %d", ev.p, ev.item.at)
}

func (x *explorer) start() exploreNode {
	return exploreNode{alg: x.newAlg(), idx: make([]int, len(x.recs))}
}

// settled is S: below the first position of the first bucket some
// partition has not fully delivered.
func (x *explorer) settled(idx []int) uint64 {
	s := uint64(math.MaxUint64)
	for p, i := range idx {
		if i < len(x.recs[p]) {
			s = min(s, x.first[p][i]-1)
		}
	}
	return s
}

func (x *explorer) fail(n exploreNode, format string, args ...any) error {
	return fmt.Errorf("%s\nschedule:\n  %v", fmt.Sprintf(format, args...), n.path)
}

// step applies ev to n's algebra and checks the result.
func (x *explorer) step(n *exploreNode, ev mergeEvent, label string) error {
	n.path = n.path.then(label)
	emit, forced, err := n.alg.step(ev)
	switch {
	case err != nil:
		return x.fail(*n, "merge error: %v", err)
	case forced > 0:
		return x.fail(*n, "%d forced releases", forced)
	case n.alg.done > x.settled(n.idx):
		return x.fail(*n, "early release: position %d released, but only positions up to %d are settled", n.alg.done, x.settled(n.idx))
	}
	for _, got := range emit {
		if n.emitted == len(x.want) {
			return x.fail(*n, "extra emission %v", got)
		}
		want := x.want[n.emitted]
		if !got.Equal(want) || got.Seq != want.Seq || got.ArrivalMillis != want.ArrivalMillis {
			return x.fail(*n, "emission %d: %v (seq %d) != single-shard %v (seq %d)", n.emitted, got, got.Seq, want, want.Seq)
		}
		n.emitted++
	}
	return nil
}

// record consumes partition p's next record, then observes the
// frontier: G at the current publisher position, and A_q after the
// publisher ran lag[q] further ops (lag is non-decreasing).
func (x *explorer) record(n exploreNode, p int, lag []int) (exploreNode, error) {
	ev := x.recs[p][n.idx[p]]
	label := x.labels[p][n.idx[p]]
	n.idx = slices.Clone(n.idx)
	n.idx[p]++
	if err := x.step(&n, ev, label); err != nil {
		return n, err
	}
	obs := mergeEvent{p: -1, pos: x.gAt[n.pc], a: x.observed(n.pc, lag)}
	for _, op := range x.ops[n.pc : n.pc+lag[len(lag)-1]] {
		n.path = n.path.then("  (during the observation) " + op.String())
	}
	n.pc += lag[len(lag)-1]
	return n, x.step(&n, obs, fmt.Sprintf("observe: G = %d, A = %v", obs.pos, obs.a))
}

// observed is the A[] an observation loads when the publisher stood at
// pc as it loaded G and ran lag[q] further ops before loading A_q.
func (x *explorer) observed(pc int, lag []int) []uint64 {
	a := make([]uint64, len(lag))
	for q, l := range lag {
		a[q] = x.aAt[pc+l][q]
	}
	return a
}

func (x *explorer) publish(n exploreNode) exploreNode {
	n.path = n.path.then(x.ops[n.pc].String())
	n.pc++
	return n
}

func (x *explorer) done(n exploreNode) bool {
	for p, i := range n.idx {
		if i < len(x.recs[p]) {
			return false
		}
	}
	return n.pc == len(x.ops)
}

func (x *explorer) finish(n exploreNode) error {
	if n.emitted != len(x.want) {
		return x.fail(n, "all records delivered, but %d of %d emissions", n.emitted, len(x.want))
	}
	return nil
}

// lags lists every observation lag vector: non-decreasing, at most
// most ops.
func lags(nparts, most int) [][]int {
	var out [][]int
	var rec func(v []int, lo int)
	rec = func(v []int, lo int) {
		if len(v) == nparts {
			out = append(out, slices.Clone(v))
			return
		}
		for l := lo; l <= most; l++ {
			rec(append(v, l), l)
		}
	}
	rec(nil, 0)
	return out
}

// clone copies n's algebra for a sibling branch. The aggregate driver
// cannot be copied, but in a state that passed every check it has seen
// exactly the delivered rows up to the last release, in position
// order, so a fresh one is fed those.
func (x *explorer) clone(n exploreNode) *mergeAlg {
	m := n.alg
	c := *m
	c.parts = slices.Clone(m.parts)
	for p := range c.parts {
		c.parts[p].buf = slices.Clone(m.parts[p].buf)
	}
	c.a = slices.Clone(m.a)
	c.wins = make([]*dsms.WindowPartial, len(m.wins))
	c.rows, c.emit = nil, nil
	if m.drv != nil {
		c.drv = x.newAlg().drv
		var rows []mergeItem
		for p, evs := range x.recs {
			for _, ev := range evs[:n.idx[p]] {
				if ev.item.at != 0 && ev.item.at <= m.done {
					rows = append(rows, ev.item)
				}
			}
		}
		slices.SortFunc(rows, func(a, b mergeItem) int { return cmp.Compare(a.at, b.at) })
		for _, it := range rows {
			if _, err := c.drv.Push([]stream.Tuple{it.row}); err != nil {
				x.tb.Fatal(err)
			}
		}
	}
	return &c
}

// explore walks every schedule from n and returns how many there are.
func (x *explorer) explore(n exploreNode) (float64, error) {
	if x.done(n) {
		return 1, x.finish(n)
	}
	key := fmt.Sprint(n.idx, n.pc, n.emitted, n.alg.g, n.alg.a, n.alg.done)
	if c, ok := x.memo[key]; ok {
		return c, nil
	}
	var total float64
	if n.pc < len(x.ops) {
		child := n
		child.alg = x.clone(n)
		c, err := x.explore(x.publish(child))
		if err != nil {
			return 0, err
		}
		total += c
	}
	// Lags that yield the same observation and publisher position are
	// distinct schedules with one outcome: explore one, count all.
	type outcome struct {
		lag  []int
		ways float64
	}
	var outcomes []*outcome
	byObs := map[string]*outcome{}
	for _, lag := range lags(len(n.idx), len(x.ops)-n.pc) {
		k := fmt.Sprint(lag[len(lag)-1], x.observed(n.pc, lag))
		if o := byObs[k]; o != nil {
			o.ways++
			continue
		}
		byObs[k] = &outcome{lag: lag, ways: 1}
		outcomes = append(outcomes, byObs[k])
	}
	for p := range n.idx {
		if n.idx[p] == x.avail[n.pc][p] {
			continue
		}
		for _, o := range outcomes {
			child := n
			child.alg = x.clone(n)
			child, err := x.record(child, p, o.lag)
			if err != nil {
				return 0, err
			}
			c, err := x.explore(child)
			if err != nil {
				return 0, err
			}
			total += c * o.ways
		}
	}
	x.memo[key] = total
	return total, nil
}

// walk runs one random schedule.
func (x *explorer) walk(rng *rand.Rand) error {
	n := x.start()
	for !x.done(n) {
		var ready []int
		for p := range n.idx {
			if n.idx[p] < x.avail[n.pc][p] {
				ready = append(ready, p)
			}
		}
		if n.pc < len(x.ops) && (len(ready) == 0 || rng.Intn(3) == 0) {
			n = x.publish(n)
			continue
		}
		// Mostly the publisher stands still while the stage observes;
		// sometimes it runs a few ops between two loads.
		lag, l := make([]int, len(n.idx)), 0
		for q := range lag {
			if rng.Intn(4) == 0 {
				l = min(len(x.ops)-n.pc, l+rng.Intn(4))
			}
			lag[q] = l
		}
		var err error
		if n, err = x.record(n, ready[rng.Intn(len(ready))], lag); err != nil {
			return err
		}
	}
	return x.finish(n)
}

// exhaustiveCases are small enough to enumerate: two and three
// partitions, a few windows, partial and relay plans over tuple and
// time windows. Some batches leave a partition empty, so windows close
// through partitions that held none of their tuples.
var exhaustiveCases = []exploreCase{
	{name: "partial_2p", query: partialQuery(2, 2),
		part: []int{0, 1, 0, 0, 1, 0}, batches: []int{2, 2, 2}},
	{name: "partial_hopping_2p", query: partialQuery(3, 2),
		part: []int{1, 0, 1, 1, 0, 1}, batches: []int{2, 1, 3}},
	{name: "time_relay_2p", query: timeRelayQuery(20, 10),
		part: []int{0, 1, 1, 0, 0, 1}, arrival: []int64{5, 12, 18, 25, 33, 41}, batches: []int{2, 2, 2}},
	{name: "filter_relay_2p", query: filterRelayQuery(2, 2),
		part: []int{0, 1, 0, 1, 1, 0}, batches: []int{3, 3}},
	{name: "partial_3p", query: partialQuery(2, 2),
		part: []int{0, 1, 2, 2, 0, 1}, batches: []int{3, 3}},
	{name: "time_relay_3p", query: timeRelayQuery(20, 10),
		part: []int{2, 0, 1, 0, 2}, arrival: []int64{5, 12, 24, 31, 45}, batches: []int{2, 3}},
}

// TestMergeExploreExhaustive enumerates every schedule of every
// exhaustive case under the fixed publish order; all must match the
// single-shard reference.
func TestMergeExploreExhaustive(t *testing.T) {
	for _, c := range exhaustiveCases {
		t.Run(c.name, func(t *testing.T) {
			x := newExplorer(t, c, pubFixed)
			schedules, err := x.explore(x.start())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f schedules through %d states, %d emissions each", schedules, len(x.memo), len(x.want))
		})
	}
}

// TestMergeExploreTornFrontier is the explorer's mutation case: under
// the publish order that stored G before A_p, it must find a schedule
// that releases a window early.
func TestMergeExploreTornFrontier(t *testing.T) {
	x := newExplorer(t, exhaustiveCases[0], pubTorn)
	_, err := x.explore(x.start())
	if err == nil || !strings.Contains(err.Error(), "early release") {
		t.Fatalf("explorer missed the torn frontier read: %v", err)
	}
	t.Logf("found:\n%v", err)
}

// TestMergeExploreRandom drives larger cases — three partitions, tens
// of tuples, random partitions and batches — with a seeded random
// scheduler.
func TestMergeExploreRandom(t *testing.T) {
	queries := map[string]*dsms.QueryGraph{
		"partial":      partialQuery(5, 3),
		"time_relay":   timeRelayQuery(60, 25),
		"filter_relay": filterRelayQuery(4, 3),
	}
	for name, q := range queries {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s_seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := exploreCase{name: name, query: q}
				for len(c.part) < 40 {
					n := 1 + rng.Intn(6)
					c.batches = append(c.batches, n)
					for range n {
						c.part = append(c.part, rng.Intn(3))
					}
				}
				c.part[0], c.part[1], c.part[2] = 0, 1, 2
				x := newExplorer(t, c, pubFixed)
				for range 200 {
					if err := x.walk(rng); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestMergeBufferForcesReleaseAndCounts drives the merge stage's only
// degraded path with a small buffer bound: partition 1 holds its
// records while partition 0 seals more windows than the bound allows
// pending, so the oldest release without the laggard. Every such
// release must be counted in exacml_merge_forced_total — an emission
// short of its window's tuples with no count behind it would be a
// silently wrong answer — and emissions must keep flowing rather than
// wait on the held partition.
func TestMergeBufferForcesReleaseAndCounts(t *testing.T) {
	const size, bound = 4, 4
	c := exploreCase{query: partialQuery(size, size)}
	for i := 0; i < 2*size; i++ {
		c.part = append(c.part, i%2) // partition 1 holds one tuple per window of the first two
	}
	for len(c.part) < 60 {
		c.part = append(c.part, 0)
	}
	for range c.part {
		c.batches = append(c.batches, 1)
	}
	ts := make([]stream.Tuple, len(c.part))
	for n := range ts {
		ts[n] = stream.NewTuple(stream.StringValue("k"), stream.IntValue(1), stream.DoubleValue(1))
		ts[n].Seq, ts[n].ArrivalMillis = uint64(n+1), int64(n+1)
	}
	recs := exploreRecords(t, c, dsms.StagePartial, ts, 2)

	reg := telemetry.NewRegistry()
	rt := New("forced", Options{Shards: 2, Metrics: reg})
	defer rt.Close()
	if err := rt.CreatePartitionedStream("s", exploreSchema(), "key"); err != nil {
		t.Fatal(err)
	}
	r, err := rt.routeFor("s")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := newMergeStage(rt, r, dsms.StagePartial, c.query)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.close()
	ms.alg.bound = bound
	out := stageOutput(t, rt, ms)
	forced := reg.Counter("exacml_merge_forced_total", "")
	deliver := func(p int) {
		for _, batch := range recs[p] {
			for _, rec := range batch {
				ms.ingest(p, []stream.Tuple{rec})
			}
		}
	}

	deliver(0)
	if forced.Load() == 0 || len(out) == 0 {
		t.Fatalf("partition 1 held: %d emissions, forced_total %d — the stage is waiting on the laggard past its buffer bound", len(out), forced.Load())
	}
	deliver(1)
	var got []stream.Tuple
	for len(out) > 0 {
		got = append(got, <-out)
	}
	// A window released whole counts `size` tuples; one released short
	// went out through the forced path and must have been counted.
	short := 0
	for _, tu := range got {
		if tu.Values[0].Int() != size {
			short++
		}
	}
	if short == 0 || uint64(short) > forced.Load() {
		t.Errorf("%d of %d emissions are short of their window, %d forced releases were counted", short, len(got), forced.Load())
	}
	t.Logf("%d emissions, %d short, forced_total %d", len(got), short, forced.Load())
}

// stageOutput subscribes to merge stage ms as a runtime subscription
// does and returns the subscription's buffer.
func stageOutput(t *testing.T, rt *Runtime, ms *mergeStage) <-chan stream.Tuple {
	t.Helper()
	sub := rt.newSubscription()
	if err := ms.subscribe(sub); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Close)
	return sub.C
}
