package repro_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// statszRecovery mirrors the fields of exacmld's /statsz payload the
// restart test asserts on.
type statszRecovery struct {
	Queries int `json:"queries"`
	Streams []struct {
		Stream string `json:"stream"`
		Class  string `json:"class"`
	} `json:"streams"`
	Audit *struct {
		ChainLength int               `json:"chain_length"`
		Kinds       map[string]uint64 `json:"kinds"`
	} `json:"audit"`
	Recovery *struct {
		AuditReplayed   int `json:"audit_replayed"`
		StreamsRestored int `json:"streams_restored"`
		QueriesRestored int `json:"queries_restored"`
		Governor        struct {
			Redemoted int `json:"redemoted"`
		} `json:"governor"`
	} `json:"recovery"`
}

// TestRestartRecoverySmoke is the process-level crash drill: an
// exacmld on in-process shards with a state dir takes a granted query
// and a governor demotion, is killed with SIGKILL, and a fresh process
// on the same directory must come back ready with the stream catalog,
// the deployed query, the audit chain and the demotion all intact.
func TestRestartRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/exacmld", "./cmd/exacml")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	stateDir := t.TempDir()
	serverAddr := freeAddr(t)
	opsAddr := freeAddr(t)

	startServer := func() *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, "exacmld"),
			"-addr", serverAddr,
			"-shards", "4",
			"-state-dir", stateDir,
			"-checkpoint-interval", "100ms",
			"-ops-bind", opsAddr,
			"-governor",
			"-governor-bind", "mallory=weather",
			"-governor-threshold", "2",
			"-governor-cooldown", "1h",
		)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start exacmld: %v", err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}
	waitReady := func() {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		url := fmt.Sprintf("http://%s/readyz", opsAddr)
		for time.Now().Before(deadline) {
			resp, err := http.Get(url)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatal("server never became ready")
	}
	statsz := func() statszRecovery {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/statsz", opsAddr))
		if err != nil {
			t.Fatalf("statsz: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("statsz read: %v", err)
		}
		var doc statszRecovery
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("statsz decode: %v\n%s", err, data)
		}
		return doc
	}
	weatherClass := func(doc statszRecovery) string {
		for _, s := range doc.Streams {
			if s.Stream == "weather" {
				return s.Class
			}
		}
		t.Fatalf("no weather stream in statsz: %+v", doc.Streams)
		return ""
	}
	cli := func(args ...string) string {
		cmd := exec.Command(filepath.Join(bin, "exacml"), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("exacml %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	srv := startServer()
	waitReady()

	// A granted request deploys a filtered view of weather; three denied
	// requests from mallory push the governor over its threshold.
	dir := t.TempDir()
	pol := xacml.NewPermitPolicy("restart:weather:lta",
		xacml.NewTarget("LTA", "weather", "read"),
		xacml.Obligation{
			ObligationID: xacmlplus.ObligationFilter,
			FulfillOn:    xacml.EffectPermit,
			Assignments: []xacml.AttributeAssignment{
				xacml.NewStringAssignment(xacmlplus.AttrFilterCondition, "rainrate > 5"),
			},
		})
	polXML, err := pol.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	polPath := filepath.Join(dir, "policy.xml")
	if err := os.WriteFile(polPath, polXML, 0o644); err != nil {
		t.Fatal(err)
	}
	deny := &xacml.Policy{
		PolicyID:           "restart:weather:mallory",
		RuleCombiningAlgID: xacml.RuleCombFirstApplicable,
		Target:             xacml.NewTarget("mallory", "weather", "read"),
		Rules:              []xacml.Rule{{RuleID: "restart:weather:mallory:rule", Effect: xacml.EffectDeny}},
	}
	denyXML, err := deny.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	denyPath := filepath.Join(dir, "deny.xml")
	if err := os.WriteFile(denyPath, denyXML, 0o644); err != nil {
		t.Fatal(err)
	}
	cli("load-policy", "-addr", serverAddr, "-file", polPath)
	cli("load-policy", "-addr", serverAddr, "-file", denyPath)
	out := cli("request", "-addr", serverAddr, "-subject", "LTA", "-resource", "weather")
	if !strings.Contains(out, "decision: Permit") {
		t.Fatalf("request output: %s", out)
	}
	for i := 0; i < 3; i++ {
		cmd := exec.Command(filepath.Join(bin, "exacml"),
			"request", "-addr", serverAddr, "-subject", "mallory", "-resource", "weather")
		out, _ := cmd.CombinedOutput() // denied requests exit non-zero
		if !strings.Contains(string(out), "Deny") {
			t.Fatalf("mallory request %d: %s", i, out)
		}
	}

	doc := statsz()
	if doc.Queries < 1 {
		t.Fatalf("no deployed query before the crash: %+v", doc)
	}
	if got := weatherClass(doc); got != "besteffort" {
		t.Fatalf("weather class before crash = %q, want the demoted besteffort", got)
	}
	preChain := doc.Audit.ChainLength

	// Let at least one periodic checkpoint land, then SIGKILL — no
	// shutdown hooks, no final checkpoint, no audit fsync.
	time.Sleep(300 * time.Millisecond)
	if err := srv.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	_, _ = srv.Process.Wait()

	startServer()
	waitReady()

	doc = statsz()
	if doc.Recovery == nil {
		t.Fatal("no recovery section in /statsz after restart")
	}
	if doc.Recovery.AuditReplayed == 0 || doc.Recovery.AuditReplayed > preChain {
		t.Fatalf("audit_replayed = %d, want 1..%d (the pre-crash chain, minus any torn tail)",
			doc.Recovery.AuditReplayed, preChain)
	}
	if doc.Recovery.StreamsRestored < 2 {
		t.Fatalf("streams_restored = %d, want weather and gps back from the catalog", doc.Recovery.StreamsRestored)
	}
	if doc.Recovery.QueriesRestored < 1 || doc.Queries < 1 {
		t.Fatalf("query did not survive the crash: restored=%d live=%d",
			doc.Recovery.QueriesRestored, doc.Queries)
	}
	if doc.Recovery.Governor.Redemoted != 1 {
		t.Fatalf("governor redemoted = %d, want mallory's weather demotion re-applied", doc.Recovery.Governor.Redemoted)
	}
	if got := weatherClass(doc); got != "besteffort" {
		t.Fatalf("weather class after restart = %q, want the demotion back in force", got)
	}
	if doc.Audit.Kinds["recover"] == 0 {
		t.Fatal("no recover event on the recovered audit chain")
	}
}
