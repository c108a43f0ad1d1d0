package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/stream"
)

// RecoveryOptions parameterises the durable control-plane cost
// experiment: how expensive is a window checkpoint at a given state
// size, and how long does a crashed node take to replay its audit
// chain, catalog and window state back into a serving runtime.
type RecoveryOptions struct {
	// Tuples is the number of tuples ingested before the checkpoint
	// (the window state the checkpoint must capture).
	Tuples int
	// AuditEvents is the length of the audit chain replayed at boot.
	AuditEvents int
	// BatchSize is the publish batch size.
	BatchSize int
	// Shards is the runtime shard count.
	Shards int
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.Tuples <= 0 {
		o.Tuples = 100000
	}
	if o.AuditEvents <= 0 {
		o.AuditEvents = 2000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// RecoveryResult reports the steady-state checkpoint cost and the
// crash-recovery cost for one state size.
type RecoveryResult struct {
	Opts RecoveryOptions
	// CheckpointMS is the wall time of one full checkpoint pass over
	// the deployed queries; CheckpointBytes the resulting on-disk size.
	CheckpointMS    float64
	CheckpointBytes int64
	// BootMS is the wall time of the recovering Boot call (open + audit
	// replay + catalog restore + checkpoint import + governor replay).
	BootMS float64
	// Stats is the recovery summary the recovered node reports.
	Stats durable.RecoveryStats
}

// String renders a two-line summary.
func (r RecoveryResult) String() string {
	return fmt.Sprintf(
		"tuples=%d audit=%d:\n  checkpoint:  %.2f ms, %d bytes on disk\n  recovery:    %.2f ms boot (%d audit events, %d streams, %d queries, %d checkpoint parts restored)",
		r.Opts.Tuples, r.Opts.AuditEvents,
		r.CheckpointMS, r.CheckpointBytes,
		r.BootMS, r.Stats.AuditReplayed, r.Stats.StreamsRestored,
		r.Stats.QueriesRestored, r.Stats.CheckpointsRestored)
}

const recoveryScript = `
CREATE INPUT STREAM s (a double, t timestamp);
CREATE WINDOW w (SIZE 256 ADVANCE 32 TUPLES);
CREATE OUTPUT STREAM out;
SELECT avg(a) AS avga, max(a) AS maxa FROM s[w] INTO out;
`

// RunRecovery ingests a workload into a durable framework, measures a
// full window-checkpoint pass, crashes the node (abandons it without
// shutdown hooks, like a SIGKILL) and measures the boot that replays
// the state directory back into a serving control plane.
func RunRecovery(o RecoveryOptions) (RecoveryResult, error) {
	o = o.withDefaults()
	res := RecoveryResult{Opts: o}
	dir, err := os.MkdirTemp("", "exacml-recovery-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	fw, err := core.Boot("bench-recovery", core.Options{StateDir: dir, Shards: o.Shards})
	if err != nil {
		return res, err
	}
	schema := stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
		stream.Field{Name: "t", Type: stream.TypeTimestamp},
	)
	if err := fw.RegisterStream("s", schema); err != nil {
		return res, err
	}
	if _, _, err := fw.Runtime.DeployScript(recoveryScript); err != nil {
		return res, err
	}

	batch := make([]stream.Tuple, 0, o.BatchSize)
	arrival := int64(1_000_000)
	for i := 0; i < o.Tuples; i++ {
		batch = append(batch, stream.NewTuple(
			stream.DoubleValue(float64((i*17)%1000)),
			stream.TimestampMillis(arrival),
		))
		arrival += int64(i%3 + 1)
		if len(batch) == o.BatchSize || i == o.Tuples-1 {
			if _, err := fw.PublishBatch("s", batch); err != nil {
				return res, err
			}
			batch = batch[:0]
		}
	}
	fw.Flush()
	for i := 0; i < o.AuditEvents; i++ {
		if _, err := fw.Audit.Append(audit.Event{
			Kind:     "access",
			Subject:  fmt.Sprintf("subject%02d", i%16),
			Resource: "s",
			Action:   "read",
			Decision: "Permit",
		}); err != nil {
			return res, err
		}
	}

	t0 := time.Now()
	if err := fw.Durable.CheckpointNow(); err != nil {
		return res, err
	}
	res.CheckpointMS = float64(time.Since(t0).Microseconds()) / 1e3
	ckFiles, err := filepath.Glob(filepath.Join(dir, "checkpoints", "*.json"))
	if err != nil {
		return res, err
	}
	for _, f := range ckFiles {
		if fi, serr := os.Stat(f); serr == nil {
			res.CheckpointBytes += fi.Size()
		}
	}

	// Crash: abandon the framework without Close — no final checkpoint,
	// no audit fsync, exactly what a killed process leaves behind.
	t0 = time.Now()
	fw2, err := core.Boot("bench-recovery", core.Options{StateDir: dir, Shards: o.Shards})
	if err != nil {
		return res, err
	}
	res.BootMS = float64(time.Since(t0).Microseconds()) / 1e3
	res.Stats = fw2.Durable.Stats()
	fw2.Close()
	if res.Stats.QueriesRestored != 1 || res.Stats.StreamsRestored != 1 {
		return res, fmt.Errorf("recovery incomplete: %+v", res.Stats)
	}
	return res, nil
}
