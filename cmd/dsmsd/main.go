// Command dsmsd runs the stand-alone Aurora-style stream engine server
// (the reproduction's StreamBase process). It pre-registers the
// synthetic weather and GPS streams and, with -feed, publishes live
// synthetic data into them. With -bare it registers nothing — the
// shape a remote shard of an exacmld runtime wants, since the runtime
// creates streams over the wire itself (exacmld -shard-addrs).
//
// A dsmsd is a shard of the exacmld in front of it: admission happens
// there, and the dsmsd validates and ingests every batch it receives.
// Its port is a trusted internal port (any peer can deploy, subscribe
// or drop a stream without reaching the PDP), so bind -addr to a
// private interface.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/dsms"
	"repro/internal/dsmsd"
	"repro/internal/netsim"
	"repro/internal/source"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	name := flag.String("name", "cloud", "engine name used in stream handle URIs")
	feed := flag.Bool("feed", false, "publish synthetic weather/GPS data continuously")
	interval := flag.Duration("interval", time.Second, "synthetic feed interval")
	simnet := flag.Bool("simnet", false, "simulate 100 Mbps intranet latency per request")
	bare := flag.Bool("bare", false, "register no built-in streams (remote shard of an exacmld runtime)")
	opsBind := flag.String("ops-bind", "", "ops HTTP listener (/metrics, /healthz, /readyz, /statsz, /debug/pprof); empty disables")
	traceSample := flag.Int("trace-sample", 1024, "trace sampling period in ingested tuples, rounded up to a power of two")
	flag.Parse()

	engine := dsms.NewEngine(*name)
	defer engine.Close()
	streams := "none (-bare)"
	if !*bare {
		if err := engine.CreateStream("weather", source.WeatherSchema()); err != nil {
			log.Fatalf("create weather stream: %v", err)
		}
		if err := engine.CreateStream("gps", source.GPSSchema()); err != nil {
			log.Fatalf("create gps stream: %v", err)
		}
		streams = "weather, gps"
	} else if *feed {
		log.Fatal("-feed needs the built-in streams; drop -bare")
	}

	var profile *netsim.Profile
	if *simnet {
		profile = netsim.Intranet100Mbps(1)
	}
	srv := dsmsd.NewServer(engine, profile)
	if *opsBind != "" {
		reg := telemetry.NewRegistry()
		srv.EnableTelemetry(reg, *traceSample)
		ops, err := telemetry.ServeOps(*opsBind, telemetry.OpsOptions{
			Registry: reg,
			Statsz: func() any {
				return map[string]any{
					"engine":  *name,
					"streams": engine.Streams(),
					"queries": engine.QueryCount(),
				}
			},
		})
		if err != nil {
			log.Fatalf("ops listener: %v", err)
		}
		defer ops.Close()
		fmt.Printf("dsmsd: ops listener on http://%s\n", ops.Addr())
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	fmt.Printf("dsmsd: engine %q listening on %s (streams: %s)\n", *name, bound, streams)

	if *feed {
		go func() {
			ws := source.NewWeatherStation(time.Now().UnixMilli(), interval.Milliseconds(), 1)
			gt := source.NewGPSTracker("dev1", 1.35, 103.82, time.Now().UnixMilli(), interval.Milliseconds(), 2)
			tick := time.NewTicker(*interval)
			defer tick.Stop()
			for range tick.C {
				if err := engine.Ingest("weather", ws.Next()); err != nil {
					log.Printf("feed weather: %v", err)
				}
				if err := engine.Ingest("gps", gt.Next()); err != nil {
					log.Printf("feed gps: %v", err)
				}
			}
		}()
		fmt.Printf("dsmsd: feeding synthetic data every %v\n", *interval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("dsmsd: shutting down")
}
