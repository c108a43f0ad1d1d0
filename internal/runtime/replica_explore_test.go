package runtime

// The replication explorer drives the replication algebra (replAlg)
// through every schedule of one primary, its followers and their
// engines, and checks each step against the contract a follower's
// engine must keep with the shipper's counters.
//
// A follower's engine is a real dsms.Engine, known by the calls it
// applied since it started: the explorer replays them on a fresh
// engine whenever it needs the engine's reply to a new call, and
// caches the reply. A ship is two events, its send (the engine applies
// it) and its reply (the algebra takes the result); between them the
// reply can also be lost, failing the ship in transport. The other
// events are an append, a follower's shard failing, its engine
// restarting empty while failed, its rejoin, a promotion, and a new
// log (a restarted runtime) over the surviving engines.
//
// After every step, for each follower whose position the current
// incarnation has learned from its current engine:
//   - the shipper's position never passes the engine's position in
//     the log;
//   - the engine's sealed tuples plus the gaps counted equal its
//     position, counted from the incarnation's first reply (sealed +
//     gaps == applied);
//   - a completed promotion leaves the follower at the log head, so its
//     stream is the log with only declared gaps.
//
// Every engine reply must match the receiver's contract
// (dsms.Engine.Replicate), and from every state some schedule must
// reach "caught up". A failing schedule prints as its event list.

import (
	"errors"
	"fmt"
	"maps"
	"strconv"
	"testing"

	"repro/internal/dsms"
	"repro/internal/stream"
)

// replCase is one scenario: followers on shards 1..followers, a log
// bound, a number of appends, and budgets for the other events.
type replCase struct {
	name      string
	followers int
	logMax    int
	appends   int
	budget    [nBudgets]int
}

// Budgeted events.
const (
	bFail = iota
	bRestart
	bLose
	bPromote
	bNewLog
	nBudgets
)

// xCall is one Replicate call an engine applied: n tuples of the log
// with id log after position base.
type xCall struct {
	log   uint64
	base  uint64
	reset bool
	n     int
}

// xEngine is a follower's engine: its generation (restarts), the calls
// it applied since it started, and what they left it at.
type xEngine struct {
	gen     int
	calls   []xCall
	log     uint64 // log of the last call, 0 before any
	applied uint64
	seq     uint64
}

// xShip is a ship in flight: its engine applied it when it was sent,
// and pos, the engine's reply, is not yet taken.
type xShip struct {
	req shipReq
	pos uint64
}

// xBase is a follower incarnation's baseline, taken when it learned
// its position.
type xBase struct {
	inc             uint64
	gen             int
	q0, seq0, gaps0 uint64
}

type replNode struct {
	alg       replAlg
	engines   []xEngine // by follower, shard i+1
	flight    []*xShip
	bases     []xBase
	appended  int
	used      [nBudgets]int
	promoting int // shard under promotion, 0 for none
	path      *schedule
}

type replExplorer struct {
	c     replCase
	cache map[string][2]uint64 // engine calls → reply, sealed
	memo  map[string]replMemo
	stack map[string]bool
}

type replMemo struct {
	schedules float64
	live      bool
}

func newReplExplorer(c replCase) *replExplorer {
	return &replExplorer{c: c, cache: map[string][2]uint64{}, memo: map[string]replMemo{}, stack: map[string]bool{}}
}

// replTuples are positions [base, base+n) of a log.
func replTuples(log, base uint64, n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		p := base + uint64(i)
		out[i] = stream.NewTuple(stream.DoubleValue(float64(log*1000+p)), stream.TimestampMillis(int64(p)))
		out[i].ArrivalMillis = int64(p)
	}
	return out
}

func (x *replExplorer) start() replNode {
	n := replNode{alg: newReplAlg(1, x.c.logMax)}
	for i := range x.c.followers {
		n.engines = append(n.engines, xEngine{})
		n.flight = append(n.flight, nil)
		n.bases = append(n.bases, xBase{})
		n.alg.join(i + 1)
	}
	return n
}

// clone copies n for a child branch; the algebra's log is copied to an
// exact capacity, so an append in one branch cannot write into
// another's.
func (n replNode) clone() replNode {
	c := n
	c.alg.log = append(make([]stream.Tuple, 0, len(n.alg.log)), n.alg.log...)
	c.alg.fol = maps.Clone(n.alg.fol)
	for s, f := range c.alg.fol {
		ff := *f
		c.alg.fol[s] = &ff
	}
	c.engines = append([]xEngine(nil), n.engines...)
	c.flight = append([]*xShip(nil), n.flight...)
	c.bases = append([]xBase(nil), n.bases...)
	return c
}

func (x *replExplorer) fail(n replNode, format string, args ...any) error {
	return fmt.Errorf("%s\nschedule:\n  %v", fmt.Sprintf(format, args...), n.path)
}

// apply runs call c on engine e: the real engine's reply and sealed
// count, checked against the receiver's contract.
func (x *replExplorer) apply(n replNode, e xEngine, c xCall) (xEngine, error) {
	key := fmt.Sprint(e.calls, c)
	got, ok := x.cache[key]
	if !ok {
		eng := dsms.NewEngine("explore")
		if err := eng.CreateStream("s", testSchema()); err != nil {
			return e, err
		}
		for _, pc := range append(e.calls[:len(e.calls):len(e.calls)], c) {
			var err error
			if got[0], err = eng.Replicate("s", pc.log, pc.base, pc.reset, replTuples(pc.log, pc.base, pc.n)); err != nil {
				return e, err
			}
		}
		seq, err := eng.StreamSeq("s")
		if err != nil {
			return e, err
		}
		eng.Close()
		got[1] = seq
		x.cache[key] = got
	}
	// The contract: a new log starts at 0 and declares no gap, a
	// base-ahead run is refused unless it declares one, and an
	// applied prefix is skipped.
	pos, reset := e.applied, c.reset
	if e.log != c.log {
		pos, reset = 0, false
	}
	want, seq := pos, e.seq
	if c.base <= pos || reset {
		lo := max(pos, c.base)
		if end := c.base + uint64(c.n); end > lo {
			want, seq = end, seq+end-lo
		}
	}
	if got[0] != want || got[1] != seq {
		return e, x.fail(n, "engine replied %d with %d sealed to %+v; the contract says %d with %d", got[0], got[1], c, want, seq)
	}
	e.calls = append(e.calls[:len(e.calls):len(e.calls)], c)
	e.log, e.applied, e.seq = c.log, want, seq
	return e, nil
}

// check verifies n after a step, and completes a promotion that has
// reached the log head.
func (x *replExplorer) check(n *replNode) error {
	for i, e := range n.engines {
		f, ok := n.alg.fol[i+1]
		if !ok {
			continue
		}
		applied := uint64(0)
		if e.log == n.alg.id {
			applied = e.applied
		}
		b := &n.bases[i]
		if f.known && b.inc != f.inc {
			*b = xBase{inc: f.inc, gen: e.gen, q0: f.pos, seq0: e.seq, gaps0: f.gaps}
		}
		if !f.known || b.inc != f.inc || b.gen != e.gen {
			continue
		}
		if f.pos > applied {
			return x.fail(*n, "shard %d: shipper at %d passed the follower's position %d", i+1, f.pos, applied)
		}
		if n.flight[i] == nil && (e.seq-b.seq0)+(f.gaps-b.gaps0) != applied-b.q0 {
			return x.fail(*n, "shard %d: sealed %d + gaps %d != applied %d since the incarnation's first reply at %d",
				i+1, e.seq-b.seq0, f.gaps-b.gaps0, applied-b.q0, b.q0)
		}
	}
	if s := n.promoting; s != 0 {
		i := s - 1
		f := *n.alg.fol[s]
		done, err := n.alg.settle(s)
		switch {
		case err != nil:
			n.promoting = 0
			n.path = n.path.then(fmt.Sprintf("promotion of shard %d fails", s))
		case done:
			n.promoting = 0
			n.path = n.path.then(fmt.Sprintf("shard %d promoted", s))
			e, b := n.engines[i], n.bases[i]
			if e.log != n.alg.id || e.applied != n.alg.next || b.inc != f.inc || b.gen != e.gen ||
				(e.seq-b.seq0)+(f.gaps-b.gaps0) != e.applied-b.q0 {
				return x.fail(*n, "promoted shard %d: at %d in log %d with %d sealed and %d gaps since %d; the log head is %d",
					s, e.applied, e.log, e.seq-b.seq0, f.gaps-b.gaps0, b.q0, n.alg.next)
			}
		}
	}
	return nil
}

// caughtUp: every follower has reported the log head and nothing is
// in flight or promoting.
func (x *replExplorer) caughtUp(n replNode) bool {
	for s, f := range n.alg.fol {
		if f.paused || !f.known || f.pos != n.alg.next || n.flight[s-1] != nil {
			return false
		}
	}
	return n.promoting == 0
}

// key is the state's memo key: every field that decides what happens
// next, and none of the counters no check reads.
func (x *replExplorer) key(n replNode) string {
	k := make([]byte, 0, 128)
	put := func(vs ...uint64) {
		for _, v := range vs {
			k = strconv.AppendUint(k, v, 10)
			k = append(k, ' ')
		}
	}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(n.alg.id, n.alg.base, n.alg.next, uint64(n.appended), uint64(n.promoting))
	for _, u := range n.used {
		put(uint64(u))
	}
	for i, e := range n.engines {
		k = append(k, '|')
		if f, ok := n.alg.fol[i+1]; ok {
			put(f.inc, f.pos, b(f.known), b(f.busy), b(f.paused), b(f.promote), f.gapFrom, f.gapTo, f.gaps)
		}
		if s := n.flight[i]; s != nil {
			put(s.req.inc, s.req.base, b(s.req.reset), b(s.req.probe), uint64(len(s.req.ts)), s.pos)
		}
		put(uint64(e.gen), e.log, e.applied, e.seq)
		bs := n.bases[i]
		put(bs.inc, uint64(bs.gen), bs.q0, bs.seq0, bs.gaps0)
	}
	return string(k)
}

// step is one event: a label and what it does to a child node (ok
// false when the event is not enabled).
type replStep struct {
	label string
	do    func(c *replNode) (bool, error)
}

func (x *replExplorer) steps(n replNode) []replStep {
	var out []replStep
	if n.appended < x.c.appends && n.promoting == 0 {
		out = append(out, replStep{"append", func(c *replNode) (bool, error) {
			c.alg.append(replTuples(c.alg.id, c.alg.next, 1))
			c.appended++
			return true, nil
		}})
	}
	if n.used[bNewLog] < x.c.budget[bNewLog] && n.promoting == 0 {
		out = append(out, replStep{"new log over the surviving engines", func(c *replNode) (bool, error) {
			c.used[bNewLog]++
			old := c.alg
			c.alg = newReplAlg(old.id+1, x.c.logMax)
			for s := range old.fol {
				c.alg.join(s)
				c.flight[s-1], c.bases[s-1] = nil, xBase{}
			}
			return true, nil
		}})
	}
	for i := range n.engines {
		s := i + 1
		f, ok := n.alg.fol[s]
		if !ok {
			continue
		}
		out = append(out, replStep{fmt.Sprintf("shard %d: send", s), func(c *replNode) (bool, error) {
			req, ok := c.alg.ship(s)
			if !ok {
				return false, nil
			}
			call := xCall{log: c.alg.id, base: req.base, reset: req.reset, n: len(req.ts)}
			e, err := x.apply(*c, c.engines[i], call)
			if err != nil {
				return false, err
			}
			c.engines[i] = e
			c.flight[i] = &xShip{req: req, pos: e.applied}
			c.path = c.path.then(fmt.Sprintf("  (shard %d: %+v → %d)", s, call, e.applied))
			return true, nil
		}})
		if n.flight[i] != nil {
			out = append(out, replStep{fmt.Sprintf("shard %d: reply", s), func(c *replNode) (bool, error) {
				c.alg.result(c.flight[i].req, c.flight[i].pos, nil)
				c.flight[i] = nil
				return true, nil
			}})
			if n.used[bLose] < x.c.budget[bLose] {
				out = append(out, replStep{fmt.Sprintf("shard %d: reply lost", s), func(c *replNode) (bool, error) {
					c.used[bLose]++
					c.alg.result(c.flight[i].req, 0, errors.New("lost"))
					c.flight[i] = nil
					return true, nil
				}})
			}
		}
		if !f.paused && n.used[bFail] < x.c.budget[bFail] {
			out = append(out, replStep{fmt.Sprintf("shard %d: fails", s), func(c *replNode) (bool, error) {
				c.used[bFail]++
				c.alg.pause(s)
				return true, nil
			}})
		}
		if f.paused {
			if n.used[bRestart] < x.c.budget[bRestart] {
				out = append(out, replStep{fmt.Sprintf("shard %d: restarts empty", s), func(c *replNode) (bool, error) {
					c.used[bRestart]++
					c.engines[i] = xEngine{gen: c.engines[i].gen + 1}
					return true, nil
				}})
			}
			out = append(out, replStep{fmt.Sprintf("shard %d: rejoins", s), func(c *replNode) (bool, error) {
				c.alg.join(s)
				return true, nil
			}})
		}
		if !f.paused && n.promoting == 0 && n.used[bPromote] < x.c.budget[bPromote] {
			out = append(out, replStep{fmt.Sprintf("shard %d: promote", s), func(c *replNode) (bool, error) {
				c.used[bPromote]++
				c.promoting = s
				c.alg.promote(s)
				return true, nil
			}})
		}
	}
	return out
}

// explore walks every schedule from n; it returns how many there are
// and whether some reaches caught up.
func (x *replExplorer) explore(n replNode) (replMemo, error) {
	key := x.key(n)
	if m, ok := x.memo[key]; ok {
		return m, nil
	}
	if x.stack[key] {
		return replMemo{}, x.fail(n, "the schedule returns to a state it left: a livelock")
	}
	x.stack[key] = true
	defer delete(x.stack, key)
	m := replMemo{live: x.caughtUp(n)}
	leaf := true
	for _, st := range x.steps(n) {
		c := n.clone()
		c.path = c.path.then(st.label)
		ok, err := st.do(&c)
		if err != nil {
			return m, err
		}
		if !ok {
			continue
		}
		leaf = false
		if err := x.check(&c); err != nil {
			return m, err
		}
		cm, err := x.explore(c)
		if err != nil {
			return m, err
		}
		m.schedules += cm.schedules
		m.live = m.live || cm.live
	}
	if leaf {
		m.schedules = 1
	}
	if !m.live {
		return m, x.fail(n, "no schedule reaches caught up from here")
	}
	x.memo[key] = m
	return m, nil
}

// replCases spread the event budgets (fail, restart-empty, lost reply,
// promote, new log) over one and two followers so the whole walk stays
// well under a second: every case can fail, rejoin and append, and each
// other event is in several cases.
var replCases = []replCase{
	{name: "restart_lose_log2", followers: 1, logMax: 2, appends: 8, budget: [nBudgets]int{1, 1, 1, 0, 0}},
	{name: "restart_promote_log3", followers: 1, logMax: 3, appends: 8, budget: [nBudgets]int{1, 1, 0, 1, 0}},
	{name: "restart_newlog_log2", followers: 1, logMax: 2, appends: 8, budget: [nBudgets]int{1, 1, 0, 0, 1}},
	{name: "all_log4", followers: 1, logMax: 4, appends: 6, budget: [nBudgets]int{1, 1, 1, 1, 1}},
	{name: "2f_promote_log2", followers: 2, logMax: 2, appends: 3, budget: [nBudgets]int{1, 1, 1, 1, 0}},
	{name: "2f_newlog_log2", followers: 2, logMax: 2, appends: 3, budget: [nBudgets]int{1, 1, 0, 0, 1}},
	{name: "2f_restart_log3", followers: 2, logMax: 3, appends: 5, budget: [nBudgets]int{1, 1, 0, 0, 0}},
}

// TestReplExplore enumerates every schedule of every case.
func TestReplExplore(t *testing.T) {
	for _, c := range replCases {
		t.Run(c.name, func(t *testing.T) {
			x := newReplExplorer(c)
			m, err := x.explore(x.start())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.0f schedules through %d states, %d distinct engine runs", m.schedules, len(x.memo), len(x.cache))
		})
	}
}
