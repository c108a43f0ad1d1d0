package runtime

// ReplicaApplied reads a follower backend's applied position in a
// replicated stream's current log: the reply to an empty Replicate
// under that log's id.
func ReplicaApplied(rt *Runtime, be ShardBackend, streamName string) (uint64, error) {
	r, err := rt.routeFor(streamName)
	if err != nil {
		return 0, err
	}
	return be.Replicate(streamName, r.repl.alg.id, 0, false, nil)
}
