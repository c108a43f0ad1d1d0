package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stream"
)

// TestRuntimeDeploySurfaceSeesAllShards guards the fix for the old
// shard-0-only engine field: the surface the PEP deploys against
// (Framework.Runtime) must resolve schemas and deploy scripts for
// streams on every shard, not just shard 0.
func TestRuntimeDeploySurfaceSeesAllShards(t *testing.T) {
	f := NewWithOptions("multi", Options{Shards: 4})
	t.Cleanup(f.Close)

	schema := stream.MustSchema(
		stream.Field{Name: "a", Type: stream.TypeDouble},
	)
	// Register one stream per shard (names chosen by placement hash),
	// guaranteeing at least three streams shard 0's engine never sees.
	names := make([]string, f.Runtime.NumShards())
	covered := 0
	for i := 0; covered < len(names); i++ {
		name := fmt.Sprintf("s%d", i)
		if si := f.Runtime.ShardForStream(name); names[si] == "" {
			names[si] = name
			covered++
			if err := f.RegisterStream(name, schema); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, name := range names {
		got, err := f.Runtime.StreamSchema(name)
		if err != nil {
			t.Fatalf("StreamSchema(%q) through the runtime: %v", name, err)
		}
		if !got.Equal(schema) {
			t.Errorf("schema for %q = %v", name, got)
		}
	}
	if got := f.Runtime.Streams(); len(got) != len(names) {
		t.Errorf("Streams() = %v, want all %d registered streams", got, len(names))
	}

	// Deploy and withdraw through the surface on every shard.
	handles := make([]string, 0, len(names))
	for _, name := range names {
		script := fmt.Sprintf(
			"CREATE INPUT STREAM %s (a double); CREATE OUTPUT STREAM o; SELECT * FROM %s WHERE a > 0 INTO o;",
			name, name)
		id, handle, err := f.Runtime.DeployScript(script)
		if err != nil {
			t.Fatalf("DeployScript on %q: %v", name, err)
		}
		if !strings.HasPrefix(id, "rq") || handle == "" {
			t.Errorf("deploy on %q = %q, %q", name, id, handle)
		}
		handles = append(handles, handle)
	}
	if qc := f.Runtime.QueryCount(); qc != len(names) {
		t.Errorf("QueryCount = %d, want %d (one query per shard)", qc, len(names))
	}
	for _, h := range handles {
		if err := f.Runtime.Withdraw(h); err != nil {
			t.Fatalf("Withdraw(%q): %v", h, err)
		}
	}
	if qc := f.Runtime.QueryCount(); qc != 0 {
		t.Errorf("QueryCount after withdraw = %d, want 0", qc)
	}
}
