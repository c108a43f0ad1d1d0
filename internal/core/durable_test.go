package core

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/governor"
	"repro/internal/runtime"
	"repro/internal/stream"
)

func durableSchema() *stream.Schema {
	return stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
}

const durableScript = `
CREATE INPUT STREAM s (a double, t timestamp);
CREATE WINDOW w (SIZE 4 ADVANCE 4 TUPLES);
CREATE OUTPUT STREAM out;
SELECT avg(a) AS avga FROM s[w] INTO out;
`

func publishVals(t *testing.T, f *Framework, vals ...float64) {
	t.Helper()
	for i, v := range vals {
		if err := f.Publish("s", stream.NewTuple(stream.DoubleValue(v), stream.TimestampMillis(int64(i)))); err != nil {
			t.Fatalf("publish %v: %v", v, err)
		}
	}
	f.Flush()
}

func collectEmissions(t *testing.T, c <-chan stream.Tuple, n int) []stream.Tuple {
	t.Helper()
	out := make([]stream.Tuple, 0, n)
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case tu, ok := <-c:
			if !ok {
				t.Fatalf("subscription closed after %d/%d emissions", len(out), n)
			}
			out = append(out, tu)
		case <-deadline:
			t.Fatalf("timeout waiting for emission %d/%d", len(out)+1, n)
		}
	}
	return out
}

// TestBootRecoveryRoundTrip is the acceptance round-trip: a framework
// with a state dir is fed a prefix, checkpointed, crashed (abandoned
// without Close) and re-booted; the restored query — resolved through
// its pre-crash handle — must then emit bit-identically to an un-killed
// control framework fed the same tuples, including the window that
// straddles the crash (its first half lives only in the checkpoint).
func TestBootRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fwB := NewWithOptions("b", Options{})
	t.Cleanup(fwB.Close)
	for _, f := range []*Framework{fwA, fwB} {
		if err := f.RegisterStream("s", durableSchema()); err != nil {
			t.Fatal(err)
		}
	}
	idA, handleA, err := fwA.Runtime.DeployScript(durableScript)
	if err != nil {
		t.Fatal(err)
	}
	_, handleB, err := fwB.Runtime.DeployScript(durableScript)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := fwB.Subscribe(handleB)
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()

	// Prefix: one full window [1..4] plus a half-built window [5,6] that
	// only the checkpoint carries across the crash.
	publishVals(t, fwA, 1, 2, 3, 4, 5, 6)
	publishVals(t, fwB, 1, 2, 3, 4, 5, 6)
	if err := fwA.Durable.CheckpointNow(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Crash: abandon fwA without Close — no final checkpoint, no audit
	// sync, goroutines left running like a killed process's threads.

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatalf("re-boot: %v", err)
	}
	t.Cleanup(fwA2.Close)
	if err := fwA2.Ready(); err != nil {
		t.Fatalf("Ready after recovery: %v", err)
	}
	st := fwA2.Durable.Stats()
	if st.StreamsRestored != 1 || st.QueriesRestored != 1 || st.CheckpointsRestored != 1 {
		t.Fatalf("recovery stats = %+v, want 1 stream, 1 query, 1 checkpoint part", st)
	}
	if _, ok := fwA2.Runtime.Query(idA); !ok {
		t.Fatalf("restored query not resolvable by original id %q", idA)
	}
	subA, err := fwA2.Subscribe(handleA) // the PRE-crash handle
	if err != nil {
		t.Fatalf("subscribe by pre-crash handle %q: %v", handleA, err)
	}
	defer subA.Close()

	// Suffix: completes the straddling window [5,6,7,8] and one more.
	publishVals(t, fwA2, 7, 8, 9, 10, 11, 12)
	publishVals(t, fwB, 7, 8, 9, 10, 11, 12)

	gotA := collectEmissions(t, subA.C, 2)
	gotB := collectEmissions(t, subB.C, 3) // B also saw window [1..4]
	wantTail := gotB[1:]
	for i := range gotA {
		a, b := gotA[i], wantTail[i]
		if len(a.Values) != len(b.Values) {
			t.Fatalf("emission %d: %d fields vs %d", i, len(a.Values), len(b.Values))
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Errorf("emission %d field %d: recovered %v, control %v", i, j, a.Values[j], b.Values[j])
			}
		}
		if a.Seq != b.Seq {
			t.Errorf("emission %d: recovered Seq %d, control Seq %d (provenance lineage broken)", i, a.Seq, b.Seq)
		}
	}
	if got := gotA[0].Values[0].Double(); got != 6.5 {
		t.Errorf("straddling window avg = %v, want 6.5 (= avg of 5,6 from checkpoint + 7,8 post-restart)", got)
	}

	// Admission accounting survives the restart intact: every offered
	// tuple is either ingested, dropped or errored.
	stats := fwA2.Stats()
	for _, row := range stats.Streams {
		if row.Offered != row.Ingested+row.Dropped+row.Errors {
			t.Errorf("stream %s: offered %d != ingested %d + dropped %d + errors %d",
				row.Stream, row.Offered, row.Ingested, row.Dropped, row.Errors)
		}
	}
}

// TestBootRecoveryTornAuditTail kills the audit file mid-record: the
// torn line is discarded, the chain is rewritten to the verified
// prefix, and the recovered log keeps appending on an intact chain —
// with the recovery itself recorded as a "recover" event.
func TestBootRecoveryTornAuditTail(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fwA.Audit.Append(audit.Event{Kind: "access", Subject: "alice", Resource: "s", Decision: "Permit"}); err != nil {
			t.Fatal(err)
		}
	}
	fwA.Close()

	// Tear the tail: a record cut off mid-write.
	path := filepath.Join(dir, "audit.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"time":123,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA2.Close)
	st := fwA2.Durable.Stats()
	// First boot chained 1 "recover" event + 3 appended = 4 good lines.
	if st.AuditReplayed != 4 || st.AuditDiscarded != 1 {
		t.Fatalf("replayed %d discarded %d, want 4 replayed, 1 discarded", st.AuditReplayed, st.AuditDiscarded)
	}
	if i := fwA2.Audit.Verify(); i != -1 {
		t.Fatalf("recovered chain corrupt at %d", i)
	}
	if got := fwA2.Audit.KindCounts()["recover"]; got != 2 {
		t.Fatalf("recover events on chain = %d, want 2 (one per boot)", got)
	}
	// The file itself was repaired: a fresh verification pass over disk
	// finds no discardable lines.
	if _, disc, err := audit.LoadFile(path); err != nil || disc != 0 {
		t.Fatalf("re-read repaired file: discarded %d, err %v", disc, err)
	}
}

// TestBootRecoveryCorruptCatalog corrupts the NEWEST catalog snapshot:
// recovery must fall back to the previous good generation rather than
// trusting (or dying on) the torn file.
func TestBootRecoveryCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.RegisterStream("s", durableSchema()); err != nil { // catalog gen 1
		t.Fatal(err)
	}
	if _, _, err := fwA.Runtime.DeployScript(durableScript); err != nil { // catalog gen 2
		t.Fatal(err)
	}
	fwA.Close()

	gens, err := filepath.Glob(filepath.Join(dir, "catalog-*.json"))
	if err != nil || len(gens) < 2 {
		t.Fatalf("want >= 2 catalog generations, got %v (%v)", gens, err)
	}
	sort.Strings(gens)
	newest := gens[len(gens)-1]
	if err := os.WriteFile(newest, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA2.Close)
	st := fwA2.Durable.Stats()
	if st.CatalogDiscarded != 1 {
		t.Fatalf("catalog discarded = %d, want 1", st.CatalogDiscarded)
	}
	// Generation 1 predates the deploy: the stream is back, the query is
	// not — the corrupted generation was recovered past, never trusted.
	if st.StreamsRestored != 1 || st.QueriesRestored != 0 {
		t.Fatalf("restored %d streams / %d queries, want 1 / 0 (previous generation)", st.StreamsRestored, st.QueriesRestored)
	}
	if _, err := fwA2.Runtime.StreamSchema("s"); err != nil {
		t.Fatalf("stream not restored from fallback generation: %v", err)
	}
}

// TestBootRecoveryCorruptCheckpoint corrupts the newest window
// checkpoint: recovery falls back to the previous generation, proven
// by the straddling window completing with the OLDER generation's
// half-built state.
func TestBootRecoveryCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fwA, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.RegisterStream("s", durableSchema()); err != nil {
		t.Fatal(err)
	}
	id, _, err := fwA.Runtime.DeployScript(durableScript)
	if err != nil {
		t.Fatal(err)
	}
	publishVals(t, fwA, 1, 2, 3, 4, 5, 6) // pending window [5,6]
	if err := fwA.Durable.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	publishVals(t, fwA, 7, 8, 9, 10) // pending window [9,10]
	if err := fwA.Durable.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cks, err := filepath.Glob(filepath.Join(dir, "checkpoints", id+"-*.json"))
	if err != nil || len(cks) < 2 {
		t.Fatalf("want >= 2 checkpoint generations, got %v (%v)", cks, err)
	}
	sort.Strings(cks)
	if err := os.WriteFile(cks[len(cks)-1], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash without Close.

	fwA2, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA2.Close)
	st := fwA2.Durable.Stats()
	if st.CheckpointsDiscarded < 1 || st.CheckpointsRestored != 1 {
		t.Fatalf("checkpoints restored %d / discarded %d, want 1 restored from the previous generation", st.CheckpointsRestored, st.CheckpointsDiscarded)
	}
	sub, err := fwA2.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	publishVals(t, fwA2, 7, 8)
	got := collectEmissions(t, sub.C, 1)
	if avg := got[0].Values[0].Double(); avg != 6.5 {
		t.Errorf("first post-recovery window avg = %v, want 6.5 (pending [5,6] from the FALLBACK checkpoint + 7,8)", avg)
	}
}

// TestGovernorDemotionSurvivesRestart drives a subject over the
// demotion threshold, crashes the node, and verifies the audit-chain
// replay re-applies the demotion on boot — while a later boot WITHOUT
// a governor shows the durable catalog kept the un-demoted base
// configuration.
func TestGovernorDemotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	gcfg := &governor.Config{
		Threshold:    2,
		HalfLife:     time.Hour, // no decay inside the test
		Cooldown:     time.Hour, // no restore inside the test
		TickInterval: -1,        // no background pass
		Bindings:     map[string][]string{"mallory": {"s"}},
	}
	fwA, err := Boot("a", Options{StateDir: dir, Governor: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := fwA.RegisterStream("s", durableSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fwA.Audit.Append(audit.Event{Kind: "access", Subject: "mallory", Resource: "s", Decision: "Deny"}); err != nil {
			t.Fatal(err)
		}
	}
	cfg, err := fwA.StreamAdmission("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != runtime.BestEffort || cfg.Rate != 100 {
		t.Fatalf("live demotion not applied: %+v", cfg)
	}
	// Crash without Close: the demotion exists only on the audit chain.

	fwA2, err := Boot("a", Options{StateDir: dir, Governor: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	st := fwA2.Durable.Stats()
	if st.Governor.Redemoted != 1 {
		t.Fatalf("governor replay = %+v, want 1 re-applied demotion", st.Governor)
	}
	cfg, err = fwA2.StreamAdmission("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != runtime.BestEffort || cfg.Rate != 100 {
		t.Fatalf("demotion did not survive the restart: %+v", cfg)
	}
	// The re-applied demotion is itself on the chain.
	found := false
	for _, e := range fwA2.Audit.Events() {
		if e.Kind == governor.KindGovern && strings.Contains(e.Detail, "re-applied after restart") {
			found = true
		}
	}
	if !found {
		t.Error("no recovered-demotion govern event on the chain")
	}
	fwA2.Close()

	// Without a governor, the same state dir boots with the BASE config:
	// the demotion was never baked into the durable catalog.
	fwA3, err := Boot("a", Options{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwA3.Close)
	cfg, err = fwA3.StreamAdmission("s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Class != runtime.Normal || cfg.Rate != 0 {
		t.Fatalf("catalog persisted the demotion (got %+v), want the base config back", cfg)
	}
}
