// Telemetry integration tests: the exported counter families must obey
// the same offered == ingested + dropped + errors invariant the Stats()
// snapshot does, the exposition must stay parseable under concurrent
// publishes (run these with -race), /readyz must flip to 503 when a
// remote shard dies, and health transitions must surface as counters
// and Kind "health" audit events.
package runtime_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/runtime"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// scrape renders the registry and lints it as Prometheus text.
func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("render exposition: %v", err)
	}
	if err := telemetry.LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, buf.String())
	}
	return buf.String()
}

// series parses an exposition into {family{labels}: value} for counter
// and gauge sample lines (histogram series included, which is fine —
// the tests only look up counter families).
func series(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestTelemetryShardInvariantExported publishes through an instrumented
// runtime (including shed tuples under a DropNewest policy and a tiny
// queue) and asserts the exported per-shard counter families obey
// offered == ingested + dropped + errors, agreeing exactly with the
// Stats() snapshot.
func TestTelemetryShardInvariantExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	rt := runtime.New("tel", runtime.Options{
		Shards:           2,
		QueueSize:        16,
		Policy:           runtime.DropNewest,
		Metrics:          reg,
		TraceSampleEvery: 4,
	})
	defer rt.Close()

	names := streamNamesPerShard(t, rt)
	for _, name := range names {
		if err := rt.CreateStream(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]stream.Tuple, 64)
	for round := 0; round < 50; round++ {
		for i := range batch {
			batch[i] = mkTuple(float64(i), int64(round*64+i)*1000)
		}
		for _, name := range names {
			if _, err := rt.PublishBatch(name, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt.Flush()
	checkInvariant(t, rt)

	st := rt.Stats()
	got := series(t, scrape(t, reg))
	row := func(family string, shard int) float64 {
		key := fmt.Sprintf(`%s{shard="%d"}`, family, shard)
		v, ok := got[key]
		if !ok {
			t.Fatalf("exposition is missing %s", key)
		}
		return v
	}
	for _, sh := range st.Shards {
		offered := row("exacml_shard_offered_total", sh.Shard)
		ingested := row("exacml_shard_ingested_total", sh.Shard)
		dropped := row("exacml_shard_dropped_total", sh.Shard)
		errs := row("exacml_shard_errors_total", sh.Shard)
		if offered != ingested+dropped+errs {
			t.Errorf("exported shard %d: offered %v != ingested %v + dropped %v + errors %v",
				sh.Shard, offered, ingested, dropped, errs)
		}
		if uint64(offered) != sh.Offered || uint64(ingested) != sh.Ingested ||
			uint64(dropped) != sh.Dropped || uint64(errs) != sh.Errors {
			t.Errorf("exported shard %d counters diverge from Stats(): exposition (%v,%v,%v,%v) stats (%d,%d,%d,%d)",
				sh.Shard, offered, ingested, dropped, errs, sh.Offered, sh.Ingested, sh.Dropped, sh.Errors)
		}
	}
	// The drop policy plus the tiny queue must actually have shed
	// something, or the invariant was vacuous.
	var dropped uint64
	for _, sh := range st.Shards {
		dropped += sh.Dropped
	}
	if dropped == 0 {
		t.Error("no tuples were dropped; tighten the queue to exercise the invariant")
	}
}

// TestTelemetryConcurrentPublishScrape hammers publishes from several
// goroutines while scraping the registry concurrently; under -race this
// pins the scrape path against the hot path. Every intermediate
// exposition must lint.
func TestTelemetryConcurrentPublishScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	rt := runtime.New("telrace", runtime.Options{
		Shards:           2,
		Metrics:          reg,
		TraceSampleEvery: 2,
	})
	defer rt.Close()
	names := streamNamesPerShard(t, rt)
	for _, name := range names {
		if err := rt.CreateStream(name, testSchema()); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			batch := make([]stream.Tuple, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = mkTuple(float64(j), int64(i*16+j)*1000)
				}
				if _, err := rt.PublishBatch(name, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	for i := 0; i < 20; i++ {
		exposition := scrape(t, reg)
		if !strings.Contains(exposition, "exacml_shard_offered_total") {
			t.Fatal("scrape lost the shard families mid-run")
		}
	}
	close(stop)
	wg.Wait()
	rt.Flush()
	checkInvariant(t, rt)
}

// TestTelemetryReadyzAndHealthEvents kills a remote shard under an
// instrumented runtime and asserts the full observability contract:
// /readyz flips 200 -> 503, the health-event counter families appear,
// and the audit log carries Kind "health" events for the connect and
// the death (but none for routine dial attempts).
func TestTelemetryReadyzAndHealthEvents(t *testing.T) {
	srv, addr := startDSMSD(t, "remote-tel", nil)
	defer srv.Engine.Close()

	reg := telemetry.NewRegistry()
	log := audit.NewLog(nil)
	rt := runtime.New("telhealth", runtime.Options{
		Backends: []runtime.BackendSpec{{Addr: addr, Remote: fastRemote()}},
		Metrics:  reg,
		Audit:    log,
	})
	defer rt.Close()

	ops, err := telemetry.ServeOps("127.0.0.1:0", telemetry.OpsOptions{
		Registry: reg,
		Ready:    rt.Health,
		Statsz:   func() any { return rt.Stats() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + ops.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Tuple, 8)
	for i := range batch {
		batch[i] = mkTuple(float64(i), int64(i)*1000)
	}
	if _, err := rt.PublishBatch("s", batch); err != nil {
		t.Fatal(err)
	}
	rt.Flush()

	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz with healthy shard = %d %q, want 200", code, body)
	}

	srv.Close() // kill the remote shard

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("publishes kept succeeding after the dsmsd died")
		}
		if _, err := rt.PublishBatch("s", batch); err != nil {
			break
		}
	}
	rt.Flush()

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "not ready") {
		t.Fatalf("/readyz with downed shard = %d %q, want 503 not ready", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200 (liveness is not readiness)", code)
	}
	if code, body := get("/statsz"); code != http.StatusOK || !strings.Contains(body, `"shards"`) {
		t.Errorf("/statsz = %d %q, want RuntimeStats JSON", code, body)
	}

	got := series(t, scrape(t, reg))
	if got[`exacml_shard_health_events_total{event="connected",shard="0"}`] < 1 {
		t.Error("no connected health event exported")
	}
	if got[`exacml_shard_health_events_total{event="down",shard="0"}`] < 1 {
		t.Error("no down health event exported")
	}

	// Health audit events append on the shard's health goroutine; poll
	// briefly.
	want := map[string]bool{"connected": false, "down": false}
	auditDeadline := time.Now().Add(5 * time.Second)
	for {
		for _, e := range log.Events() {
			if e.Kind == "health" && e.Resource == "shard/0" {
				if _, ok := want[e.Action]; ok {
					want[e.Action] = true
				}
				if e.Action == "dial" {
					t.Error("routine dial attempts must not be audited")
				}
			}
		}
		if want["connected"] && want["down"] {
			break
		}
		if time.Now().After(auditDeadline) {
			t.Fatalf("missing health audit events: %+v (log: %+v)", want, log.Events())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if i := log.Verify(); i >= 0 {
		t.Errorf("audit chain corrupt at %d", i)
	}
}
