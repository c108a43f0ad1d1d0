package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/governor"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// auditFile is the audit chain's file name inside the state dir.
const auditFile = "audit.jsonl"

// checkpointDir is the window-checkpoint subdirectory.
const checkpointDir = "checkpoints"

// KindRecover is the audit Event.Kind under which a completed boot
// recovery is recorded on the chain, with the replay/restore counts in
// Detail — the recovery itself is as accountable as the decisions it
// replayed.
const KindRecover = "recover"

// RecoveryStats summarizes what one boot recovered; exposed on /statsz
// and as exacml_recovery_* metrics.
type RecoveryStats struct {
	// AuditReplayed is the verified chain length loaded from disk.
	AuditReplayed int `json:"audit_replayed"`
	// AuditDiscarded counts trailing audit lines dropped as torn or
	// failing the hash-chain check (recovered past, never trusted).
	AuditDiscarded int `json:"audit_discarded"`
	// CatalogDiscarded counts catalog snapshot generations skipped as
	// torn or checksum-corrupt before a valid one was found.
	CatalogDiscarded int `json:"catalog_discarded"`
	// StreamsRestored / StreamsFailed count catalog stream re-creations.
	StreamsRestored int `json:"streams_restored"`
	StreamsFailed   int `json:"streams_failed,omitempty"`
	// QueriesRestored / QueriesFailed count catalog query re-deploys.
	QueriesRestored int `json:"queries_restored"`
	QueriesFailed   int `json:"queries_failed,omitempty"`
	// CheckpointsRestored counts window-checkpoint parts imported into
	// restored queries; CheckpointsDiscarded counts checkpoint
	// generations or parts dropped as corrupt or unimportable.
	CheckpointsRestored  int `json:"checkpoints_restored"`
	CheckpointsDiscarded int `json:"checkpoints_discarded,omitempty"`
	// Governor is the audit-replay outcome (scores, re-applied and
	// expired demotions); zero when no governor is configured.
	Governor governor.ReplayStats `json:"governor"`
	// DurationMillis is the wall-clock cost of the whole recovery.
	DurationMillis int64 `json:"duration_millis"`
}

// Manager owns a state directory: the audit chain file, the catalog
// snapshots and the window checkpoints. Create one with Open, hand its
// Log and CatalogObserver to the framework under construction, then
// run Recover once the runtime exists. The manager is nil-safe on its
// read paths so callers can hold one optionally.
type Manager struct {
	dir     string
	ckDir   string
	log     *audit.Log
	history []audit.Event
	auditF  *os.File
	cat     *catalog
	catDoc  catalogDoc

	rt       *runtime.Runtime
	interval time.Duration

	ready atomic.Bool

	mu    sync.Mutex
	stats RecoveryStats
	ckGen map[string]uint64

	ckRuns    atomic.Uint64
	ckErrors  atomic.Uint64
	ckSkipped atomic.Uint64
	ckLast    atomic.Int64 // unix millis of the last successful run

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open loads (and repairs) the state directory: the audit chain is
// read back through the hash-chain verifier — a torn or corrupted tail
// is cut off and the file rewritten to the verified prefix before the
// append handle reopens it — and the newest valid catalog snapshot is
// loaded. The returned manager's Log continues the persisted chain;
// wire it and CatalogObserver into the framework, then call Recover.
func Open(dir string, reg *telemetry.Registry) (*Manager, error) {
	if err := os.MkdirAll(filepath.Join(dir, checkpointDir), 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		dir:   dir,
		ckDir: filepath.Join(dir, checkpointDir),
		cat:   newCatalog(dir),
		ckGen: map[string]uint64{},
		stop:  make(chan struct{}),
	}
	path := filepath.Join(dir, auditFile)
	events, discarded, err := audit.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: audit chain: %w", err)
	}
	if discarded > 0 {
		// Rewrite the file to the verified prefix so the discarded tail
		// cannot resurface (and the next append continues a clean chain).
		var buf []byte
		for _, e := range events {
			line, merr := json.Marshal(e)
			if merr != nil {
				return nil, fmt.Errorf("durable: audit chain: %w", merr)
			}
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		if err := writeFileAtomic(path, buf); err != nil {
			return nil, fmt.Errorf("durable: audit chain: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	m.auditF = f
	m.history = events
	m.log = audit.NewLogWithHistory(f, events)
	doc, catDiscarded, err := m.cat.load()
	if err != nil {
		f.Close()
		return nil, err
	}
	m.catDoc = doc
	m.mu.Lock()
	m.stats.AuditReplayed = len(events)
	m.stats.AuditDiscarded = discarded
	m.stats.CatalogDiscarded = catDiscarded
	m.mu.Unlock()
	m.enableTelemetry(reg)
	return m, nil
}

// Log is the audit log continuing the persisted chain.
func (m *Manager) Log() *audit.Log { return m.log }

// CatalogObserver is the control-plane observer to set as
// runtime.Options.Catalog.
func (m *Manager) CatalogObserver() runtime.CatalogObserver { return m.cat }

// Ready reports nil once Recover has completed all three planes; until
// then the error drives the /readyz 503.
func (m *Manager) Ready() error {
	if m == nil || m.ready.Load() {
		return nil
	}
	return errors.New("durable: recovery in progress")
}

// Stats snapshots the recovery counters.
func (m *Manager) Stats() RecoveryStats {
	if m == nil {
		return RecoveryStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Recover replays the persisted state into a freshly built framework,
// in dependency order: catalog streams, catalog queries (under their
// original runtime ids, each starting from its latest window
// checkpoint, or empty when the checkpoint does not fit), and finally
// the audit chain through the governor so in-force demotions are
// re-applied with their cooldown anchors intact. The catalog observer
// is muted for the duration — replaying a snapshot must not rewrite it. A "recover" event with the outcome lands on the
// audit chain, readiness flips, and (with interval > 0) the periodic
// checkpointer starts. Individual objects that fail to restore are
// counted and skipped, not fatal: a partially recovered control plane
// beats a node that refuses to boot.
func (m *Manager) Recover(rt *runtime.Runtime, gov *governor.Governor, interval time.Duration) error {
	start := time.Now()
	m.cat.setMuted(true)
	var st RecoveryStats
	for _, rec := range m.catDoc.Streams {
		if err := restoreStream(rt, rec); err != nil {
			st.StreamsFailed++
			continue
		}
		st.StreamsRestored++
	}
	for _, q := range m.catDoc.Queries {
		payload, gen, disc, _ := loadLatestSnapshot(m.ckDir, q.ID)
		st.CheckpointsDiscarded += disc
		var cps []runtime.QueryCheckpoint
		if payload != nil {
			m.mu.Lock()
			m.ckGen[q.ID] = gen
			m.mu.Unlock()
			if err := json.Unmarshal(payload, &cps); err != nil {
				st.CheckpointsDiscarded++
				cps = nil
			}
		}
		_, err := rt.RestoreQuery(q.ID, q.Handle, q.Script, cps)
		if err != nil && cps != nil {
			// A checkpoint that does not fit its query must not cost
			// the query: restore it empty, as if it had none.
			st.CheckpointsDiscarded += len(cps)
			cps = nil
			_, err = rt.RestoreQuery(q.ID, q.Handle, q.Script, nil)
		}
		if err != nil {
			st.QueriesFailed++
			continue
		}
		st.QueriesRestored++
		st.CheckpointsRestored += len(cps)
	}
	m.cat.setMuted(false)
	if gov != nil {
		// Replay only the events loaded from disk: anything appended
		// since Open already reached the governor through its live
		// observer, and feeding it twice would double-score subjects.
		st.Governor = gov.Replay(m.history)
	}
	st.DurationMillis = time.Since(start).Milliseconds()
	m.mu.Lock()
	st.AuditReplayed = m.stats.AuditReplayed
	st.AuditDiscarded = m.stats.AuditDiscarded
	st.CatalogDiscarded = m.stats.CatalogDiscarded
	m.stats = st
	m.mu.Unlock()
	_, _ = m.log.Append(audit.Event{
		Kind: KindRecover,
		Detail: fmt.Sprintf(
			"recovered control plane: %d audit events replayed (%d discarded), %d streams, %d queries, %d checkpoint parts (%d discarded); governor scored=%d redemoted=%d expired=%d",
			st.AuditReplayed, st.AuditDiscarded, st.StreamsRestored, st.QueriesRestored,
			st.CheckpointsRestored, st.CheckpointsDiscarded,
			st.Governor.Scored, st.Governor.Redemoted, st.Governor.Expired),
	})
	m.rt = rt
	m.interval = interval
	m.ready.Store(true)
	if interval > 0 {
		m.wg.Add(1)
		go m.checkpointLoop()
	}
	return nil
}

// enableTelemetry exports the recovery and checkpoint counters.
func (m *Manager) enableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(g *telemetry.Gather) {
		st := m.Stats()
		g.Counter("exacml_recovery_audit_events_replayed_total",
			"Verified audit events replayed from the state dir at boot.", uint64(st.AuditReplayed))
		g.Counter("exacml_recovery_audit_discarded_total",
			"Torn or corrupt trailing audit lines discarded at boot.", uint64(st.AuditDiscarded))
		g.Counter("exacml_recovery_streams_restored_total",
			"Catalog streams re-registered at boot.", uint64(st.StreamsRestored))
		g.Counter("exacml_recovery_queries_restored_total",
			"Catalog queries re-deployed at boot.", uint64(st.QueriesRestored))
		g.Counter("exacml_recovery_checkpoints_restored_total",
			"Window-checkpoint parts imported into restored queries at boot.", uint64(st.CheckpointsRestored))
		g.Counter("exacml_recovery_checkpoints_discarded_total",
			"Checkpoint generations or parts discarded as corrupt at boot.", uint64(st.CheckpointsDiscarded))
		g.Gauge("exacml_recovery_duration_seconds",
			"Wall-clock cost of the last boot recovery.", float64(st.DurationMillis)/1000)
		g.Counter("exacml_checkpoint_runs_total",
			"Completed periodic window-checkpoint passes.", m.ckRuns.Load())
		g.Counter("exacml_checkpoint_errors_total",
			"Window-checkpoint export or write failures.", m.ckErrors.Load())
		g.Counter("exacml_checkpoint_skipped_total",
			"Queries a window-checkpoint pass skipped as not checkpointable, once per query per pass.", m.ckSkipped.Load())
		g.Counter("exacml_catalog_write_errors_total",
			"Catalog snapshot writes that failed.", m.cat.writeErrors())
	})
}

// Close stops the checkpointer, takes a final checkpoint so a clean
// shutdown restarts with full window state, and syncs + closes the
// audit file.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	if m.ready.Load() && m.rt != nil {
		_ = m.CheckpointNow()
	}
	var err error
	if m.auditF != nil {
		if serr := m.auditF.Sync(); serr != nil {
			err = serr
		}
		if cerr := m.auditF.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
