package dsms

import "repro/internal/stream"

// Replicate applies a contiguous run of a replicated stream's tuples,
// as shipped by the primary's replicator. log names the shipper's log,
// and base is the absolute position in it of the tuple before ts[0].
// The stream keeps its applied position in one log: a run under another
// log id starts the stream at position 0 of that log. The position
// makes the call retry-safe, because an already-applied prefix is
// skipped rather than ingested twice. A base ahead of the applied
// position is refused by ingesting nothing, unless reset declares that
// the tuples in between were trimmed from the shipper's bounded log and
// are permanently lost; then the position jumps forward to base so the
// retained tail can re-feed this engine. A gap is only declared against
// a position this stream reported for the log, so reset is ignored on
// a run that switches logs, and it never moves the position backward.
//
// The position lives on the input stream, so DropStream clears it. It
// returns the applied position after the run: the reply to an empty run
// is the position itself.
func (e *Engine) Replicate(name string, log, base uint64, reset bool, ts []stream.Tuple) (uint64, error) {
	is, err := e.lookupStream(name)
	if err != nil {
		return 0, err
	}
	// One writer per stream at a time: the dedup below reads the
	// position, ingests, then advances it.
	is.replMu.Lock()
	defer is.replMu.Unlock()
	if log != is.replLog {
		is.replLog, is.applied, reset = log, 0, false
	}
	if base > is.applied {
		if !reset {
			return is.applied, nil
		}
		is.applied = base
	}
	if skip := is.applied - base; skip < uint64(len(ts)) {
		if err := e.ingestInto(is, ts[skip:], false, nil, false); err != nil {
			return is.applied, err
		}
		is.applied = base + uint64(len(ts))
	}
	return is.applied, nil
}
