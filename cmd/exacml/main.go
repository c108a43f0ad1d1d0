// Command exacml is the user-facing client CLI of the eXACML+
// framework. Subcommands:
//
//	exacml load-policy  -addr HOST:PORT -file policy.xml
//	exacml remove-policy -addr HOST:PORT -id POLICY_ID
//	exacml request      -addr HOST:PORT -subject S -resource R [-action read] [-query query.xml]
//	exacml release      -addr HOST:PORT -subject S -resource R
//	exacml stats        -addr HOST:PORT
//	exacml subscribe    -addr HOST:PORT -handle URI [-count N]
//	exacml publish      -addr HOST:PORT -stream NAME [-gen weather|gps] [-tuples N] [-batch N]
//	exacml runtime-stats -addr HOST:PORT
//	exacml reconfigure  -addr HOST:PORT -stream NAME [-class C] [-rate R] [-burst B]
//	exacml governor-stats -addr HOST:PORT
//	exacml watch        [-ops HOST:PORT] [-addr HOST:PORT] [-interval 2s] [-count N]
//
// watch refreshes the runtime-stats table every -interval. With -ops it
// polls the server's ops listener (exacmld -ops-bind) over HTTP
// /statsz — no RPC connection needed; without -ops it falls back to
// the runtime-stats RPC on -addr. -count bounds the refreshes (0 =
// forever).
//
// subscribe, publish, runtime-stats and reconfigure work against any
// exacmld (every topology runs the ingest runtime); governor-stats
// additionally needs the governor (exacmld -governor). publish
// generates synthetic tuples for the named stream and reports the
// server's admission verdict — how many tuples the stream's quota shed
// and how many the backpressure policy accepted. reconfigure swaps a
// stream's priority class and token-bucket quota live, without
// re-registering the stream — the manual form of the demotion the
// governor applies autonomously (see docs/ACCOUNTABILITY.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/xacmlplus"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7422", "proxy or data server address")
	file := fs.String("file", "", "policy XML file (load-policy)")
	id := fs.String("id", "", "policy id (remove-policy)")
	subject := fs.String("subject", "", "requesting subject")
	resource := fs.String("resource", "", "stream resource")
	action := fs.String("action", "read", "requested action")
	query := fs.String("query", "", "user query XML file (request)")
	handle := fs.String("handle", "", "granted stream handle (subscribe)")
	count := fs.Int("count", 10, "tuples to print (subscribe) or refreshes to draw (watch) before exiting, 0 = forever")
	streamName := fs.String("stream", "weather", "target stream (publish, reconfigure)")
	gen := fs.String("gen", "weather", "tuple generator: weather|gps (publish)")
	tuples := fs.Int("tuples", 1000, "tuples to publish (publish)")
	batch := fs.Int("batch", 64, "tuples per batch (publish)")
	class := fs.String("class", "", "new priority class besteffort|normal|critical (reconfigure; empty = normal)")
	rate := fs.Float64("rate", 0, "new quota rate in tuples/s, 0 = unlimited (reconfigure)")
	burst := fs.Int("burst", 0, "new quota burst, 0 = one second of rate (reconfigure)")
	ops := fs.String("ops", "", "ops listener address for /statsz polling (watch; empty = runtime-stats RPC on -addr)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval (watch)")
	_ = fs.Parse(os.Args[2:])

	// watch against an ops listener is pure HTTP; don't require the RPC
	// endpoint to be up for it.
	var cli *client.Client
	var err error
	if cmd != "watch" || *ops == "" {
		cli, err = client.Dial(*addr)
		if err != nil {
			log.Fatalf("connect %s: %v", *addr, err)
		}
		defer cli.Close()
	}

	switch cmd {
	case "load-policy":
		if *file == "" {
			log.Fatal("load-policy requires -file")
		}
		data, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		pid, err := cli.LoadPolicy(data)
		if err != nil {
			log.Fatalf("load policy: %v", err)
		}
		fmt.Printf("loaded policy %q\n", pid)
	case "remove-policy":
		if *id == "" {
			log.Fatal("remove-policy requires -id")
		}
		withdrawn, err := cli.RemovePolicy(*id)
		if err != nil {
			log.Fatalf("remove policy: %v", err)
		}
		fmt.Printf("removed policy %q, withdrew %d query graph(s): %v\n", *id, len(withdrawn), withdrawn)
	case "request":
		if *subject == "" || *resource == "" {
			log.Fatal("request requires -subject and -resource")
		}
		var uq *xacmlplus.UserQuery
		if *query != "" {
			data, err := os.ReadFile(*query)
			if err != nil {
				log.Fatal(err)
			}
			uq, err = xacmlplus.ParseUserQuery(data)
			if err != nil {
				log.Fatalf("parse user query: %v", err)
			}
		}
		resp, err := cli.RequestAccess(*subject, *resource, *action, uq)
		if err != nil {
			log.Fatalf("request: %v", err)
		}
		fmt.Printf("decision: %s\nverdict:  %s\n", resp.Decision, resp.Verdict)
		for _, w := range resp.Warnings {
			fmt.Printf("warning:  %s\n", w)
		}
		if resp.Granted() {
			fmt.Printf("handle:   %s\nquery id: %s\nreused:   %v\n", resp.Handle, resp.QueryID, resp.Reused)
			fmt.Printf("timings:  pdp=%dus graph=%dus engine=%dus\n",
				resp.PDPNanos/1000, resp.GraphNanos/1000, resp.EngineNanos/1000)
		}
	case "release":
		if *subject == "" || *resource == "" {
			log.Fatal("release requires -subject and -resource")
		}
		if err := cli.Release(*subject, *resource); err != nil {
			log.Fatalf("release: %v", err)
		}
		fmt.Println("released")
	case "stats":
		st, err := cli.Stats()
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		fmt.Printf("policies: %d\nactive grants: %d\n", st.Policies, st.ActiveGrants)
	case "subscribe":
		if *handle == "" {
			log.Fatal("subscribe requires -handle")
		}
		done := make(chan struct{})
		var seen atomic.Int64
		cli.OnTuple = func(t stream.Tuple) {
			fmt.Println(t)
			// OnTuple runs on the connection's single read loop, so
			// the == comparison fires exactly once as pushes continue.
			if n := seen.Add(1); *count > 0 && n == int64(*count) {
				close(done)
			}
		}
		if err := cli.Subscribe(*handle); err != nil {
			log.Fatalf("subscribe: %v", err)
		}
		fmt.Fprintf(os.Stderr, "subscribed to %s\n", *handle)
		select {
		case <-done:
		case <-cli.Closed():
			log.Fatalf("subscribe: connection closed after %d tuple(s)", seen.Load())
		}
	case "publish":
		if *batch <= 0 || *tuples < 0 {
			log.Fatal("publish requires -batch >= 1 and -tuples >= 0")
		}
		var next func() stream.Tuple
		switch *gen {
		case "weather":
			ws := source.NewWeatherStation(0, 1000, 1)
			next = ws.Next
		case "gps":
			gt := source.NewGPSTracker("dev-cli", 1.35, 103.82, 0, 1000, 1)
			next = gt.Next
		default:
			log.Fatalf("publish: unknown generator %q (want weather or gps)", *gen)
		}
		var offered, accepted, shed int
		buf := make([]stream.Tuple, 0, *batch)
		flush := func() {
			if len(buf) == 0 {
				return
			}
			v, err := cli.PublishBatchVerdict(*streamName, buf)
			if err != nil {
				log.Fatalf("publish: %v", err)
			}
			offered += v.Offered
			accepted += v.Accepted
			shed += v.Shed
			buf = buf[:0]
		}
		for i := 0; i < *tuples; i++ {
			buf = append(buf, next())
			if len(buf) == *batch {
				flush()
			}
		}
		flush()
		fmt.Printf("published to %q: offered=%d accepted=%d quota-shed=%d policy-dropped=%d\n",
			*streamName, offered, accepted, shed, offered-accepted-shed)
	case "runtime-stats":
		st, err := cli.RuntimeStats()
		if err != nil {
			log.Fatalf("runtime-stats: %v", err)
		}
		fmt.Print(st)
	case "reconfigure":
		if *streamName == "" {
			log.Fatal("reconfigure requires -stream")
		}
		resp, err := cli.Reconfigure(*streamName, *class, *rate, *burst)
		if err != nil {
			log.Fatalf("reconfigure: %v", err)
		}
		fmt.Printf("reconfigured %q: class %s -> %s, quota %s -> %s\n",
			resp.Stream, resp.Old.Class, resp.New.Class,
			quotaString(resp.Old.Rate, resp.Old.Burst), quotaString(resp.New.Rate, resp.New.Burst))
	case "governor-stats":
		st, err := cli.GovernorStats()
		if err != nil {
			log.Fatalf("governor-stats: %v", err)
		}
		fmt.Print(st)
	case "watch":
		if *interval <= 0 {
			log.Fatal("watch requires -interval > 0")
		}
		watch(cli, *ops, *interval, *count)
	default:
		usage()
	}
}

// watch polls the runtime stats and redraws them in place. source is
// the ops listener address (HTTP /statsz) or, when empty, the
// runtime-stats RPC on the already-dialed client. count bounds the
// refreshes; 0 runs until interrupted. Transient fetch errors are shown
// and retried on the next tick.
func watch(cli *client.Client, ops string, interval time.Duration, count int) {
	fetch := func() (metrics.RuntimeStats, error) {
		if ops != "" {
			return fetchStatsz(ops)
		}
		return cli.RuntimeStats()
	}
	source := "runtime-stats rpc"
	if ops != "" {
		source = "ops " + ops
	}
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		st, err := fetch()
		// Clear the screen and home the cursor between refreshes so the
		// table redraws in place.
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("exacml watch (%s, every %v, refresh %d)\n\n", source, interval, i+1)
		if err != nil {
			fmt.Printf("fetch failed: %v\n", err)
			continue
		}
		fmt.Print(st)
	}
}

// fetchStatsz GETs the ops listener's /statsz and decodes the
// RuntimeStats snapshot.
func fetchStatsz(addr string) (metrics.RuntimeStats, error) {
	var st metrics.RuntimeStats
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/statsz") {
		url = strings.TrimSuffix(url, "/") + "/statsz"
	}
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode %s: %w", url, err)
	}
	return st, nil
}

func quotaString(rate float64, burst int) string {
	if rate <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f/s:%d", rate, burst)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: exacml <command> [flags]

commands:
  load-policy   -addr HOST:PORT -file policy.xml
  remove-policy -addr HOST:PORT -id POLICY_ID
  request       -addr HOST:PORT -subject S -resource R [-action read] [-query query.xml]
  release       -addr HOST:PORT -subject S -resource R
  stats         -addr HOST:PORT
  subscribe     -addr HOST:PORT -handle URI [-count N]
  publish       -addr HOST:PORT -stream NAME [-gen weather|gps] [-tuples N] [-batch N]
  runtime-stats -addr HOST:PORT
  reconfigure   -addr HOST:PORT -stream NAME [-class C] [-rate R] [-burst B]
  governor-stats -addr HOST:PORT
  watch         [-ops HOST:PORT] [-addr HOST:PORT] [-interval 2s] [-count N]`)
	os.Exit(2)
}
