// Command workloadgen materialises the §4.2 workload on disk in the
// paper's format: "Each continuous query corresponds to three files in
// the experiment: (1) a StreamSQL script as the input to the
// direct-query system; (2) a XACML policy file whose obligations form
// the query graph exactly as that in the above StreamSQL script;
// (3) a XACML request file for requesting data streams, which may also
// have a user query embedded inside."
//
//	workloadgen -out ./workload [-scale 10] [-seed 2012]
//
// writes policies/policyNNNN.xml, queries/queryNNNN.sql,
// requests/requestNNNN.xml (+ userqueryNNNN.xml when present) and
// sequence files for the unique and Zipf orders.
//
// -mode publish switches to the multi-publisher load driver for the
// sharded ingest runtime:
//
//	workloadgen -mode publish -publishers 8 -batch 64 -shards 4 \
//	    -tuples 200000 -shed dropoldest [-queue 4096]
//	workloadgen -mode publish -addr 127.0.0.1:7421 -publishers 8 ...
//
// Without -addr the runtime is stood up in-process and the per-shard
// accounting is printed; with -addr the tuples are batch-published
// over TCP to an exacmld (any topology).
//
// -mix splits the in-process publish load across priority classes, one
// stream per class, so class-aware shedding can be observed directly:
//
//	workloadgen -mode publish -mix "critical=10,besteffort=90" \
//	    -tuples 200000 -queue 256 -shed dropnewest
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/runtime"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/workload"
)

func main() {
	out := flag.String("out", "workload", "output directory")
	scale := flag.Int("scale", 1, "shrink the Table 3 workload by this factor")
	seed := flag.Int64("seed", 2012, "workload seed")
	mode := flag.String("mode", "files", "files: write the §4.2 workload; publish: drive the sharded ingest runtime")
	publishers := flag.Int("publishers", 8, "publish mode: concurrent publisher goroutines")
	batch := flag.Int("batch", 64, "publish mode: tuples per PublishBatch call")
	shards := flag.Int("shards", 4, "publish mode: engine shards (in-process)")
	tuples := flag.Int("tuples", 200000, "publish mode: total tuples to publish")
	queue := flag.Int("queue", 0, "publish mode: per-shard queue capacity (0 = default)")
	shed := flag.String("shed", "block", "publish mode: backpressure policy block|dropnewest|dropoldest")
	addr := flag.String("addr", "", "publish mode: publish over TCP to this exacmld address instead of in-process")
	mix := flag.String("mix", "", `publish mode: class mix as "class=percent,..." (e.g. "critical=10,besteffort=90"); one in-process stream per class`)
	flag.Parse()

	if *mode == "publish" {
		if err := runPublish(*addr, *mix, *publishers, *batch, *shards, *tuples, *queue, *shed); err != nil {
			log.Fatalf("publish: %v", err)
		}
		return
	}

	p := workload.TableThree()
	if *scale > 1 {
		p = workload.Scaled(*scale)
	}
	p.Seed = *seed
	w, err := workload.Generate(p)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}

	dirs := []string{"policies", "queries", "requests"}
	for _, d := range dirs {
		if err := os.MkdirAll(filepath.Join(*out, d), 0o755); err != nil {
			log.Fatal(err)
		}
	}

	for i, xmlDoc := range w.PolicyXML {
		path := filepath.Join(*out, "policies", fmt.Sprintf("policy%04d.xml", i))
		if err := os.WriteFile(path, []byte(xmlDoc), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	withUQ := 0
	for _, item := range w.Items {
		sqlPath := filepath.Join(*out, "queries", fmt.Sprintf("query%04d.sql", item.Index))
		if err := os.WriteFile(sqlPath, []byte(item.Script+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
		reqPath := filepath.Join(*out, "requests", fmt.Sprintf("request%04d.xml", item.Index))
		if err := os.WriteFile(reqPath, []byte(item.RequestXML), 0o644); err != nil {
			log.Fatal(err)
		}
		if item.UserQueryXML != "" {
			withUQ++
			uqPath := filepath.Join(*out, "requests", fmt.Sprintf("userquery%04d.xml", item.Index))
			if err := os.WriteFile(uqPath, []byte(item.UserQueryXML), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}

	writeSeq := func(name string, seq []int) {
		lines := make([]string, len(seq))
		for i, idx := range seq {
			lines[i] = strconv.Itoa(idx)
		}
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	writeSeq("sequence-unique.txt", w.UniqueSequence())
	writeSeq("sequence-zipf.txt", w.ZipfSequence(p.NRequests, p.Seed+1))

	fmt.Printf("workloadgen: wrote %d policies, %d queries, %d requests (%d with user queries) to %s\n",
		len(w.PolicyXML), len(w.Items), len(w.Items), withUQ, *out)
}

// runPublish is the multi-publisher load driver.
func runPublish(addr, mix string, publishers, batch, shards, tuples, queue int, shed string) error {
	policy, err := runtime.ParsePolicy(shed)
	if err != nil {
		return err
	}
	if addr == "" {
		if mix != "" {
			return publishMix(mix, publishers, batch, shards, tuples, queue, policy)
		}
		res, err := experiments.RunShardedIngest(experiments.ShardedOptions{
			Shards:     shards,
			Publishers: publishers,
			BatchSize:  batch,
			Tuples:     tuples,
			QueueSize:  queue,
			Policy:     policy,
		})
		if err != nil {
			return err
		}
		fmt.Println(res)
		fmt.Print(res.Stats)
		return nil
	}
	if mix != "" {
		return fmt.Errorf("-mix drives an in-process runtime; it cannot be combined with -addr")
	}
	return publishRemote(addr, publishers, batch, tuples)
}

// publishMix drives the admission scenario: one stream per named class,
// each offered the given percentage of -tuples, all saturating (no
// pacing) so the class-aware shedding policy decides who gets through.
func publishMix(mix string, publishers, batch, shards, tuples, queue int, policy runtime.Policy) error {
	specs := []experiments.AdmissionStreamSpec{}
	total := 0
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, pctStr, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("mix entry %q is not class=percent", part)
		}
		class, err := runtime.ParseClass(name)
		if err != nil {
			return err
		}
		pct, err := strconv.Atoi(strings.TrimSpace(pctStr))
		if err != nil || pct <= 0 || pct > 100 {
			return fmt.Errorf("mix entry %q: bad percentage", part)
		}
		total += pct
		specs = append(specs, experiments.AdmissionStreamSpec{
			Name:       class.String(),
			Class:      class,
			Tuples:     tuples * pct / 100,
			Publishers: max(1, publishers*pct/100),
		})
	}
	if len(specs) == 0 || total > 100 {
		return fmt.Errorf("mix %q: need 1+ classes summing to <= 100%%", mix)
	}
	res, err := experiments.RunAdmission(experiments.AdmissionOptions{
		Shards:       shards,
		QueueSize:    queue,
		Policy:       policy,
		BatchPublish: batch,
		Streams:      specs,
	})
	if err != nil {
		return err
	}
	fmt.Print(res)
	fmt.Print(res.Stats)
	return nil
}

// publishRemote batch-publishes synthetic weather tuples over TCP to a
// data server (any exacmld: every topology runs the ingest runtime).
// The server's policy decides the shedding; we report its accounting.
func publishRemote(addr string, publishers, batch, tuples int) error {
	var wg sync.WaitGroup
	errs := make(chan error, publishers)
	start := time.Now()
	for p := 0; p < publishers; p++ {
		// Spread the remainder so exactly `tuples` are published.
		perPub := tuples / publishers
		if p < tuples%publishers {
			perPub++
		}
		wg.Add(1)
		go func(p, perPub int) {
			defer wg.Done()
			cli, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			ws := source.NewWeatherStation(0, 1000, int64(p+1))
			buf := make([]stream.Tuple, 0, batch)
			for i := 0; i < perPub; i++ {
				buf = append(buf, ws.Next())
				if len(buf) == batch {
					if _, err := cli.PublishBatch("weather", buf); err != nil {
						errs <- err
						return
					}
					buf = buf[:0]
				}
			}
			if len(buf) > 0 {
				if _, err := cli.PublishBatch("weather", buf); err != nil {
					errs <- err
				}
			}
		}(p, perPub)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	elapsed := time.Since(start)
	sent := tuples
	fmt.Printf("workloadgen: published %d tuples from %d publishers in %v (%.0f tuples/s offered)\n",
		sent, publishers, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	cli, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	st, err := cli.RuntimeStats()
	if err != nil {
		return err
	}
	fmt.Print(st)
	return nil
}
