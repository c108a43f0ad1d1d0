package dsms

import (
	"errors"
	"fmt"

	"repro/internal/stream"
)

// ErrReplicaGap reports a replication run whose base position is ahead
// of the stream's applied position: this engine lost replica state (a
// restart, or the stream was dropped and re-created) since the last
// ship, and applying the run would fork the stream's sequence lineage.
// The dsmsd server maps it onto the replica_gap protocol code.
var ErrReplicaGap = errors.New("replication base ahead of applied position")

// Replicate applies a contiguous run of a replicated stream's tuples,
// as shipped by the primary's replicator. base is the absolute position
// of the tuple before ts[0]; the stream's applied position makes the
// call retry-safe, because an already-applied prefix is skipped rather
// than ingested twice. A base ahead of the applied position is refused
// with ErrReplicaGap, unless reset declares that the tuples in between
// were trimmed from the shipper's bounded log and are permanently lost.
// In that case the position jumps forward to base so the retained tail
// can re-feed this engine. reset never moves the position backward.
//
// The position lives on the input stream, so DropStream clears it and
// a re-created stream starts from 0. It returns the applied position
// after the run.
func (e *Engine) Replicate(name string, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	is, err := e.lookupStream(name)
	if err != nil {
		return 0, err
	}
	// One writer per stream at a time: the dedup below reads the
	// position, ingests, then advances it.
	is.replMu.Lock()
	defer is.replMu.Unlock()
	applied := is.applied.Load()
	if base > applied {
		if !reset {
			return applied, fmt.Errorf("dsms: stream %q: %w (base %d, applied %d)", name, ErrReplicaGap, base, applied)
		}
		applied = base
	}
	if skip := applied - base; skip < uint64(len(ts)) {
		if err := e.ingestInto(is, ts[skip:], false, nil, false); err != nil {
			return is.applied.Load(), err
		}
	}
	if end := base + uint64(len(ts)); end > applied {
		applied = end
	}
	is.applied.Store(applied)
	return applied, nil
}

// ReplicaStatus reports a stream's applied replication position (0 for
// a stream never replicated to).
func (e *Engine) ReplicaStatus(name string) (uint64, error) {
	is, err := e.lookupStream(name)
	if err != nil {
		return 0, err
	}
	return is.applied.Load(), nil
}

// ImportQuery deploys g and installs st into the fresh query: the
// receiving half of a live migration, and of a durable restore.
// replaceID, when set, is withdrawn first (a standby part promoted in
// place; one already gone is fine). A st.InputSeq > 0 fast-forwards the
// input stream's sequence counter so emission provenance continues the
// source lineage; a counter already past it is left alone. If the state
// does not install, the fresh query is withdrawn again.
func (e *Engine) ImportQuery(g *QueryGraph, replaceID string, st *QueryState) (Deployment, error) {
	if g == nil {
		return Deployment{}, fmt.Errorf("dsms: nil query graph")
	}
	if replaceID != "" {
		if err := e.Withdraw(replaceID); err != nil && !errors.Is(err, ErrUnknownQuery) {
			return Deployment{}, err
		}
	}
	if st != nil && st.InputSeq > 0 {
		if err := e.setStreamSeq(g.Input, st.InputSeq); err != nil && !errors.Is(err, errSeqBehind) {
			return Deployment{}, err
		}
	}
	d, err := e.Deploy(g)
	if err != nil {
		return Deployment{}, err
	}
	if st != nil {
		if err := e.importQueryState(d.ID, st); err != nil {
			_ = e.Withdraw(d.ID)
			return Deployment{}, err
		}
	}
	return d, nil
}
