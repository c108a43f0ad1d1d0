package core

import (
	"strings"
	"testing"

	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

func newFramework(t *testing.T) *Framework {
	t.Helper()
	f := New("test")
	t.Cleanup(f.Close)
	if err := f.RegisterStream("weather", source.WeatherSchema()); err != nil {
		t.Fatal(err)
	}
	return f
}

func ltaPolicy() *xacml.Policy {
	return xacml.NewPermitPolicy("nea:weather:lta",
		xacml.NewTarget("LTA", "weather", "read"),
		xacml.Obligation{
			ObligationID: xacmlplus.ObligationFilter,
			FulfillOn:    xacml.EffectPermit,
			Assignments: []xacml.AttributeAssignment{
				xacml.NewStringAssignment(xacmlplus.AttrFilterCondition, "rainrate > 5"),
			},
		},
		xacml.Obligation{
			ObligationID: xacmlplus.ObligationMap,
			FulfillOn:    xacml.EffectPermit,
			Assignments: []xacml.AttributeAssignment{
				xacml.NewStringAssignment(xacmlplus.AttrMapAttribute, "samplingtime"),
				xacml.NewStringAssignment(xacmlplus.AttrMapAttribute, "rainrate"),
			},
		},
	)
}

func TestFrameworkGrantAndDataFlow(t *testing.T) {
	f := newFramework(t)
	if err := f.AddPolicy(ltaPolicy()); err != nil {
		t.Fatal(err)
	}
	resp, err := RequireHandle(f.Request("LTA", "weather", "read", nil))
	if err != nil {
		t.Fatalf("Request: %v", err)
	}
	sub, err := f.Subscribe(resp.Handle)
	if err != nil {
		t.Fatal(err)
	}
	ws := source.NewWeatherStation(0, 30000, 1)
	published, passed := 0, 0
	schema := source.WeatherSchema()
	for i := 0; i < 500; i++ {
		tu := ws.Next()
		v, _ := tu.Get(schema, "rainrate")
		if v.Double() > 5 {
			passed++
		}
		if err := f.Publish("weather", tu); err != nil {
			t.Fatal(err)
		}
		published++
	}
	f.Flush()
	got := 0
	for len(sub.C) > 0 {
		tu := <-sub.C
		if len(tu.Values) != 2 {
			t.Fatalf("projected arity = %d", len(tu.Values))
		}
		if tu.Values[1].Double() <= 5 {
			t.Fatalf("rainrate %v leaked through filter", tu.Values[1])
		}
		got++
	}
	if got != passed {
		t.Errorf("delivered %d tuples, want %d of %d", got, passed, published)
	}
}

func TestFrameworkDenyWithoutPolicy(t *testing.T) {
	f := newFramework(t)
	resp, err := f.Request("LTA", "weather", "read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted() {
		t.Error("granted without policy")
	}
	if _, err := RequireHandle(resp, nil); err == nil || !strings.Contains(err.Error(), "not granted") {
		t.Errorf("RequireHandle error = %v", err)
	}
}

func TestFrameworkPolicyXMLLifecycle(t *testing.T) {
	f := newFramework(t)
	data, err := ltaPolicy().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	id, err := f.LoadPolicy(data)
	if err != nil || id != "nea:weather:lta" {
		t.Fatalf("LoadPolicy: (%q,%v)", id, err)
	}
	if _, err := RequireHandle(f.Request("LTA", "weather", "read", nil)); err != nil {
		t.Fatal(err)
	}
	withdrawn, err := f.RemovePolicy(id)
	if err != nil || len(withdrawn) != 1 {
		t.Fatalf("RemovePolicy: (%v,%v)", withdrawn, err)
	}
	if f.Runtime.QueryCount() != 0 {
		t.Error("graphs not withdrawn")
	}
	if _, err := f.LoadPolicy([]byte("<broken")); err == nil {
		t.Error("bad XML must fail")
	}
}

func TestFrameworkRelease(t *testing.T) {
	f := newFramework(t)
	if err := f.AddPolicy(ltaPolicy()); err != nil {
		t.Fatal(err)
	}
	if _, err := RequireHandle(f.Request("LTA", "weather", "read", nil)); err != nil {
		t.Fatal(err)
	}
	if err := f.Release("LTA", "weather"); err != nil {
		t.Fatal(err)
	}
	if f.Runtime.QueryCount() != 0 {
		t.Error("release should withdraw the query")
	}
	if err := f.AddPolicy(&xacml.Policy{}); err == nil {
		t.Error("invalid policy must fail")
	}
}

func TestFrameworkUserQueryWarning(t *testing.T) {
	f := newFramework(t)
	if err := f.AddPolicy(ltaPolicy()); err != nil {
		t.Fatal(err)
	}
	uq := &xacmlplus.UserQuery{
		Stream: xacmlplus.StreamRef{Name: "weather"},
		Map:    &xacmlplus.MapClause{Attributes: []string{"barometer"}},
	}
	resp, err := f.Request("LTA", "weather", "read", uq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Granted() || resp.Verdict.String() != "NR" {
		t.Errorf("barometer is withheld; expected NR, got %+v", resp)
	}
	_ = stream.TypeDouble
}
