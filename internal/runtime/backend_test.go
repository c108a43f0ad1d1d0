package runtime

import (
	"testing"
)

func TestParseShardAddrs(t *testing.T) {
	specs, err := ParseShardAddrs("local, 127.0.0.1:7420 ,,127.0.0.1:7430")
	if err != nil {
		t.Fatal(err)
	}
	want := []BackendSpec{{}, {Addr: "127.0.0.1:7420"}, {}, {Addr: "127.0.0.1:7430"}}
	if len(specs) != len(want) {
		t.Fatalf("specs = %v, want %v", specs, want)
	}
	for i := range want {
		if specs[i].Addr != want[i].Addr {
			t.Errorf("spec %d addr = %q, want %q", i, specs[i].Addr, want[i].Addr)
		}
	}
	if specs, err := ParseShardAddrs("  "); err != nil || specs != nil {
		t.Errorf("blank list = %v, %v; want nil, nil", specs, err)
	}
	if _, err := ParseShardAddrs("local,notanaddress"); err == nil {
		t.Error("want error for a portless address")
	}
}

// TestBackendAccessor checks the post-refactor shard surface: the raw
// engine is reachable only by asserting the backend to *LocalBackend.
func TestBackendAccessor(t *testing.T) {
	rt := New("acc", Options{Shards: 2})
	defer rt.Close()
	for i := 0; i < rt.NumShards(); i++ {
		be := rt.Backend(i)
		if be.Kind() != "local" {
			t.Fatalf("shard %d kind = %q, want local", i, be.Kind())
		}
		lb, ok := be.(*LocalBackend)
		if !ok || lb.Engine() == nil {
			t.Fatalf("shard %d backend = %T, want *LocalBackend with engine", i, be)
		}
		if !be.Healthy() {
			t.Fatalf("shard %d local backend not healthy", i)
		}
	}
}

// TestLocalBackendDeployFromScript covers the script-only deploy path
// of the local adapter (the form a remote backend would receive).
func TestLocalBackendDeployFromScript(t *testing.T) {
	rt := New("script", Options{Shards: 1})
	defer rt.Close()
	if err := rt.CreateStream("s", testSchema()); err != nil {
		t.Fatal(err)
	}
	be := rt.Backend(0)
	dep, err := be.PutPart("part", DeployRequest{Script: "CREATE INPUT STREAM s (a double, t timestamp); CREATE OUTPUT STREAM big; SELECT * FROM s WHERE a > 1 INTO big;"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dep.ID != "part" || dep.OutputSchema == nil {
		t.Fatalf("deploy = %+v, want the part's name and output schema", dep)
	}
	if _, err := be.PutPart("empty", DeployRequest{}, nil); err == nil {
		t.Error("want error for a deploy with neither graph nor script")
	}
	if err := be.DeletePart(dep.ID); err != nil {
		t.Fatal(err)
	}
}
