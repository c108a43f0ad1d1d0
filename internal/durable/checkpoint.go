package durable

import (
	"errors"
	"os"
	"strings"
	"time"

	"repro/internal/runtime"
)

// checkpointLoop runs CheckpointNow every interval until Close.
func (m *Manager) checkpointLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			_ = m.CheckpointNow()
		}
	}
}

// CheckpointNow exports every deployment's window state, on local and
// remote shards alike, to a fresh snapshot generation (atomic write,
// previous generation kept as fallback), removes the checkpoint
// families of withdrawn queries, and syncs the audit file so the chain
// on disk covers at least everything the checkpoints' state reflects.
// Queries that are structurally not checkpointable (staged global
// aggregates, replicated partitioned streams) are skipped and counted
// in exacml_checkpoint_skipped_total — they restart from an empty
// window, exactly as before checkpoints existed. The first error is
// returned after the full pass; every failure is counted.
func (m *Manager) CheckpointNow() error {
	rt := m.rt
	if rt == nil {
		return errors.New("durable: no runtime attached (Recover not run)")
	}
	var first error
	live := map[string]bool{}
	for _, id := range rt.DeploymentIDs() {
		live[id] = true
		cps, err := rt.ExportQueryCheckpoint(id)
		if err != nil {
			if errors.Is(err, runtime.ErrNotCheckpointable) {
				m.ckSkipped.Add(1)
				continue
			}
			m.ckErrors.Add(1)
			if first == nil {
				first = err
			}
			continue
		}
		m.mu.Lock()
		m.ckGen[id]++
		gen := m.ckGen[id]
		m.mu.Unlock()
		if err := writeSnapshot(m.ckDir, id, gen, cps); err != nil {
			m.ckErrors.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	// Reap checkpoint families whose query is gone: a restore must not
	// resurrect state for a query the catalog no longer deploys.
	for _, prefix := range snapshotPrefixes(m.ckDir) {
		if !live[prefix] {
			removeSnapshots(m.ckDir, prefix)
			m.mu.Lock()
			delete(m.ckGen, prefix)
			m.mu.Unlock()
		}
	}
	if m.auditF != nil {
		_ = m.auditF.Sync()
	}
	m.ckRuns.Add(1)
	if first == nil {
		m.ckLast.Store(time.Now().UnixMilli())
	}
	return first
}

// snapshotPrefixes lists the distinct snapshot families in a dir
// (runtime query ids never contain '-', so the prefix is everything
// before the generation suffix).
func snapshotPrefixes(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		i := strings.LastIndex(name, "-")
		if i <= 0 {
			continue
		}
		p := name[:i]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
