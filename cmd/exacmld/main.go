// Command exacmld runs the eXACML+ data server: PDP, PEP and query
// graph manager over a sharded ingest runtime (core.Boot), serving the
// request, publish and subscribe paths on one TCP socket. It
// pre-registers the weather and gps streams (gps partitioned by
// deviceid across shards); policies can be preloaded from a directory
// of XML files.
//
// The topology is data, not a mode. -shard-addrs LIST, if given, names
// a backend per shard slot: a dsmsd host:port, or "local" (or an empty
// entry) for an in-process engine. Else -shards N, if given, is N
// in-process engines. Else the server is the paper's deployment: one
// remote shard at -dsms (default 127.0.0.1:7420), a stock dsmsd whose
// built-in weather and gps streams the runtime adopts:
//
//	dsmsd -addr 127.0.0.1:7420 -feed
//	exacmld -dsms 127.0.0.1:7420 -policies ./policies
//
// The same server on in-process engines, shedding instead of blocking
// when a shard queue (-queue) is full:
//
//	exacmld -shards 4 -shed dropoldest -policies ./policies
//
// -admission assigns the pre-registered streams a priority class and an
// optional token-bucket quota (name=class[:rate[:burst]]), and
// -block-class limits the block policy to classes at or above the
// threshold, shedding lower ones:
//
//	exacmld -shards 4 -admission "gps=critical,weather=besteffort:5000:256" \
//	    -shed dropnewest
//
// A mixed local/remote topology; publishes bound for a downed remote
// shard fail fast, accounted as errors, until the restarted dsmsd is
// re-adopted:
//
//	exacmld -shard-addrs "local,127.0.0.1:7420,127.0.0.1:7430"
//
// -replication keeps every single-shard stream on N shards (a primary
// plus N-1 asynchronously fed followers); when the primary's shard
// dies its queries fail over to the most caught-up follower with their
// window state intact, and a restarted dsmsd is re-adopted into the
// topology (see docs/OPERATIONS.md, "Replication & failover"):
//
//	exacmld -shard-addrs "127.0.0.1:7420,127.0.0.1:7430,127.0.0.1:7440" \
//	    -replication 2
//
// -governor starts the accountability governor over the audit log
// (§6): subjects accumulating denied requests or NR/PR violations have
// their bound streams demoted (class down, quota tightened) at runtime
// and restored after a cooldown. It enables in-memory auditing when
// neither -audit nor -state-dir is set. -governor-bind maps subjects to
// the streams they own:
//
//	exacmld -shards 4 -governor -governor-bind "mallory=weather" \
//	    -governor-threshold 5 -governor-cooldown 1m -policies ./policies
//
// -state-dir makes the control plane durable: the audit chain is
// persisted as hash-verified JSON lines, stream DDL and deployed
// queries as crash-consistent catalog snapshots, and window state as
// periodic checkpoints (-checkpoint-interval). On restart the whole
// control plane — streams, queries, window contents, and the
// governor's demotions with their cooldown clocks — is replayed from
// the directory before the server reports ready (see docs/OPERATIONS.md,
// "Durability & recovery"):
//
//	exacmld -shards 4 -state-dir /var/lib/exacml -checkpoint-interval 5s
//
// -ops-bind starts the ops HTTP listener: /metrics (Prometheus text),
// /healthz, /readyz (503 until every shard backend is healthy and any
// durable recovery has completed), /statsz (runtime, query, audit and
// recovery stats JSON) and /debug/pprof. -trace-sample tunes how often
// a published batch is traced through queue/seal/pipeline/push (see
// docs/OBSERVABILITY.md):
//
//	exacmld -shards 4 -ops-bind 127.0.0.1:9090 -trace-sample 256
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/governor"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/telemetry"
	"repro/internal/xacml"
)

// statszDoc is the /statsz payload: the runtime stats flattened at the
// top level (field-compatible with the pre-durability
// RuntimeStats-only payload, so `exacml watch` and scripts keyed on
// "shards" keep working) plus the query inventory, audit chain and
// boot-recovery summaries.
type statszDoc struct {
	metrics.RuntimeStats
	Queries  int                    `json:"queries"`
	Audit    *audit.Stats           `json:"audit,omitempty"`
	Recovery *durable.RecoveryStats `json:"recovery,omitempty"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7421", "listen address")
	dsmsAddr := flag.String("dsms", "127.0.0.1:7420", "dsmsd address of the single remote shard used when neither -shard-addrs nor -shards is given")
	policyDir := flag.String("policies", "", "directory of policy XML files to preload")
	simnet := flag.Bool("simnet", false, "simulate 100 Mbps intranet latency per request")
	deployOnPR := flag.Bool("deploy-on-pr", false, "deploy streams despite PR warnings")
	auditPath := flag.String("audit", "", "append-only audit log file (accountability extension)")
	shards := flag.Int("shards", 0, "number of in-process engine shards (0 = unset: one remote shard at -dsms)")
	shardAddrs := flag.String("shard-addrs", "", `per-shard backend list "local,host:port,..." (overrides -shards and -dsms)`)
	replication := flag.Int("replication", 0, "copies of each single-shard stream (primary + followers); 0/1 disables")
	queue := flag.Int("queue", 0, "per-shard queue capacity (0 = default)")
	shed := flag.String("shed", "block", "backpressure policy block|dropnewest|dropoldest")
	admission := flag.String("admission", "", `per-stream class/quota specs "name=class[:rate[:burst]],..."`)
	blockClass := flag.String("block-class", "besteffort", "block policy only blocks classes at or above this; lower classes are shed")
	gov := flag.Bool("governor", false, "run the accountability governor over the audit log")
	govBind := flag.String("governor-bind", "", `governor: subject-to-stream bindings "subject=stream[+stream...],..."`)
	govThreshold := flag.Float64("governor-threshold", 0, "governor: badness score triggering demotion (0 = default 5)")
	govHalfLife := flag.Duration("governor-halflife", 0, "governor: score decay half-life (0 = default 30s)")
	govCooldown := flag.Duration("governor-cooldown", 0, "governor: demotion duration after the last offence (0 = default 1m)")
	govClass := flag.String("governor-class", "besteffort", "governor: class demoted streams are moved to")
	govRate := flag.Float64("governor-rate", 0, "governor: quota rate (tuples/s) imposed while demoted (0 = default 100)")
	opsBind := flag.String("ops-bind", "", "ops HTTP listener (/metrics, /healthz, /readyz, /statsz, /debug/pprof); empty disables")
	traceSample := flag.Int("trace-sample", 0, "publish-path trace sampling period in tuples, rounded up to a power of two (0 = default 1024)")
	stateDir := flag.String("state-dir", "", "durable control-plane state directory (audit chain, catalog snapshots, window checkpoints); replayed on restart")
	ckInterval := flag.Duration("checkpoint-interval", 5*time.Second, "state-dir: period of the window checkpointer (0 = only the final checkpoint at shutdown)")
	flag.Parse()

	if *stateDir != "" && *auditPath != "" {
		log.Fatal("-state-dir and -audit are mutually exclusive: the state dir owns the audit chain (at <state-dir>/audit.jsonl)")
	}

	var reg *telemetry.Registry
	if *opsBind != "" {
		reg = telemetry.NewRegistry()
	}

	// The ops listener starts before the (possibly slow) durable
	// recovery, behind swappable probes: /readyz serves 503 while the
	// control plane is still being replayed, flipping to 200 only once
	// the framework reports ready.
	var readyFn, statszFn atomic.Value
	readyFn.Store(func() error { return errors.New("exacmld: booting") })
	statszFn.Store(func() any { return nil })
	if *opsBind != "" {
		ops, err := telemetry.ServeOps(*opsBind, telemetry.OpsOptions{
			Registry: reg,
			Ready:    func() error { return readyFn.Load().(func() error)() },
			Statsz:   func() any { return statszFn.Load().(func() any)() },
		})
		if err != nil {
			log.Fatalf("ops listener: %v", err)
		}
		defer ops.Close()
		fmt.Printf("exacmld: ops listener on http://%s (/metrics /healthz /readyz /statsz /debug/pprof)\n", ops.Addr())
	}

	var auditLog *audit.Log
	if *auditPath != "" {
		f, err := os.OpenFile(*auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("open audit log: %v", err)
		}
		defer f.Close()
		auditLog = audit.NewLog(f)
		fmt.Printf("exacmld: auditing decisions to %s\n", *auditPath)
	}

	policy, err := runtime.ParsePolicy(*shed)
	if err != nil {
		log.Fatal(err)
	}
	bc, err := runtime.ParseClass(*blockClass)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := runtime.ParseStreamSpecs(*admission)
	if err != nil {
		log.Fatal(err)
	}
	backends, err := runtime.ParseShardAddrs(*shardAddrs)
	if err != nil {
		log.Fatal(err)
	}
	if len(backends) == 0 && *shards == 0 {
		// The paper's topology: one stream engine process behind the
		// data server, as a one-remote-shard runtime.
		backends = []runtime.BackendSpec{{Addr: *dsmsAddr}}
	}
	streamOpts := func(name string) []runtime.StreamOption {
		cfg, ok := specs[name]
		if !ok {
			return nil
		}
		delete(specs, name)
		return []runtime.StreamOption{runtime.WithConfig(cfg)}
	}
	copts := core.Options{
		Shards:             *shards,
		ShardAddrs:         backends,
		QueueSize:          *queue,
		Policy:             policy,
		BlockClass:         bc,
		Replication:        *replication,
		Audit:              auditLog,
		Metrics:            reg,
		TraceSampleEvery:   *traceSample,
		StateDir:           *stateDir,
		CheckpointInterval: *ckInterval,
	}
	var bindings map[string][]string
	if *gov {
		demoteClass, err := runtime.ParseClass(*govClass)
		if err != nil {
			log.Fatal(err)
		}
		bindings, err = governor.ParseBindings(*govBind)
		if err != nil {
			log.Fatal(err)
		}
		// Bindings ride in the config (not post-construction Bind
		// calls) so the boot-time audit replay already knows which
		// streams each recovered demotion applies to.
		copts.Governor = &governor.Config{
			Threshold:   *govThreshold,
			HalfLife:    *govHalfLife,
			Cooldown:    *govCooldown,
			DemoteClass: demoteClass,
			DemoteRate:  *govRate,
			Bindings:    bindings,
		}
	}
	fw, err := core.Boot("cloud", copts)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	defer fw.Close()
	if fw.Governor != nil {
		fmt.Printf("exacmld: accountability governor running (%d subject binding(s))\n", len(bindings))
	}
	if *stateDir != "" {
		st := fw.Durable.Stats()
		fmt.Printf("exacmld: durable state dir %s (recovered %d audit events, %d streams, %d queries, %d checkpoint parts in %dms)\n",
			*stateDir, st.AuditReplayed, st.StreamsRestored, st.QueriesRestored, st.CheckpointsRestored, st.DurationMillis)
	}
	// The built-in streams may already have been restored from the
	// state dir — in that case the persisted catalog (schema and
	// admission config) wins over the flags. A stock dsmsd behind a
	// remote shard already holds them too; creating an equal-schema
	// stream there adopts it.
	restored := func(name string) bool {
		_, err := fw.Runtime.StreamSchema(name)
		return err == nil
	}
	if restored("weather") {
		delete(specs, "weather")
	} else if err := fw.RegisterStream("weather", source.WeatherSchema(), streamOpts("weather")...); err != nil {
		log.Fatalf("create weather stream: %v", err)
	}
	if restored("gps") {
		delete(specs, "gps")
	} else if err := fw.RegisterPartitionedStream("gps", source.GPSSchema(), "deviceid", streamOpts("gps")...); err != nil {
		log.Fatalf("create gps stream: %v", err)
	}
	for name := range specs {
		log.Fatalf("-admission names unknown stream %q (built-in streams: weather, gps)", name)
	}
	readyFn.Store(fw.Ready)
	statszFn.Store(func() any {
		doc := statszDoc{RuntimeStats: fw.Runtime.Stats(), Queries: fw.Runtime.QueryCount()}
		if fw.Audit != nil {
			st := fw.Audit.Stats()
			doc.Audit = &st
		}
		if fw.Durable != nil {
			st := fw.Durable.Stats()
			doc.Recovery = &st
		}
		return doc
	})
	kinds := make([]string, fw.Runtime.NumShards())
	for i := range kinds {
		kinds[i] = fw.Runtime.Backend(i).Kind()
	}
	fmt.Printf("exacmld: runtime with %d shard(s) [%s], policy %s (streams: weather, gps)\n",
		len(kinds), strings.Join(kinds, " "), policy)
	fw.PEP.DeployOnPR = *deployOnPR

	if *policyDir != "" {
		files, err := filepath.Glob(filepath.Join(*policyDir, "*.xml"))
		if err != nil {
			log.Fatalf("scan policies: %v", err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				log.Fatalf("read %s: %v", f, err)
			}
			pol, err := xacml.ParsePolicy(data)
			if err != nil {
				log.Fatalf("parse %s: %v", f, err)
			}
			if _, err := fw.PEP.UpdatePolicy(pol); err != nil {
				log.Fatalf("load %s: %v", f, err)
			}
			fmt.Printf("exacmld: loaded policy %q from %s\n", pol.PolicyID, f)
		}
	}

	var profile *netsim.Profile
	if *simnet {
		profile = netsim.Intranet100Mbps(2)
	}
	srv := server.New(fw.PEP, profile)
	srv.AttachPublisher(fw.Runtime)
	if fw.Governor != nil {
		srv.AttachGovernor(fw.Governor)
	}
	if reg != nil {
		srv.EnableTelemetry(reg)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	fmt.Printf("exacmld: data server listening on %s (%d policies)\n", bound, fw.PDP.Count())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("exacmld: shutting down")
}
