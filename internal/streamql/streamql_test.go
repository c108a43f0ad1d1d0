package streamql

import (
	"strings"
	"testing"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/stream"
)

// fig4bScript is the paper's generated StreamSQL (Fig 4(b)), cleaned of
// its typographical artifacts (trailing comma, missing schema fields).
const fig4bScript = `
CREATE INPUT STREAM weather (
  samplingtime timestamp, temperature double,
  humidity double, rainrate double,
  windspeed double, winddirection int,
  barometer double);
CREATE STREAM internal_0;
SELECT * FROM weather WHERE rainrate > 50 INTO internal_0;
CREATE OUTPUT STREAM internal_1;
SELECT internal_0.samplingtime, internal_0.rainrate
FROM internal_0 INTO internal_1;
CREATE OUTPUT STREAM output;
CREATE WINDOW _10tuple (SIZE 10 ADVANCE 2 TUPLES);
SELECT lastval(samplingtime) AS lastvalsamplingtime,
  avg(rainrate) AS avgrainrate
FROM internal_1[_10tuple] INTO output;
`

func TestParseFig4b(t *testing.T) {
	script, err := Parse(fig4bScript)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(script.Statements) != 8 {
		t.Fatalf("statements = %d, want 8", len(script.Statements))
	}
	in, ok := script.Statements[0].(*CreateInputStream)
	if !ok || in.Name != "weather" || in.Schema.Len() != 7 {
		t.Fatalf("input statement = %#v", script.Statements[0])
	}
	win, ok := script.Statements[6].(*CreateWindow)
	if !ok || win.Spec.Size != 10 || win.Spec.Step != 2 || win.Spec.Type != dsms.WindowTuple {
		t.Fatalf("window statement = %#v", script.Statements[5])
	}
}

func TestCompileFig4b(t *testing.T) {
	c, err := CompileString(fig4bScript)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if c.Input != "weather" {
		t.Errorf("input = %q", c.Input)
	}
	if len(c.Graph.Boxes) != 3 {
		t.Fatalf("boxes = %d, want 3 (%s)", len(c.Graph.Boxes), c.Graph)
	}
	f := c.Graph.Boxes[0]
	if f.Kind != dsms.BoxFilter || !expr.Equal(f.Condition, expr.MustParse("rainrate > 50")) {
		t.Errorf("box 0 = %s", f)
	}
	m := c.Graph.Boxes[1]
	if m.Kind != dsms.BoxMap || len(m.Attrs) != 2 || m.Attrs[0] != "samplingtime" {
		t.Errorf("box 1 = %s", m)
	}
	a := c.Graph.Boxes[2]
	if a.Kind != dsms.BoxAggregate || a.Window.Size != 10 || len(a.Aggs) != 2 {
		t.Errorf("box 2 = %s", a)
	}
	if a.Aggs[1].Func != dsms.AggAvg || a.Aggs[1].Attr != "rainrate" {
		t.Errorf("agg 1 = %v", a.Aggs[1])
	}
}

func TestCompileExecutesEndToEnd(t *testing.T) {
	c, err := CompileString(fig4bScript)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var input []stream.Tuple
	for i := 0; i < 30; i++ {
		input = append(input, stream.NewTuple(
			stream.TimestampMillis(int64(i)*30000),
			stream.DoubleValue(25), stream.DoubleValue(80),
			stream.DoubleValue(51+float64(i)), // all pass rainrate > 50
			stream.DoubleValue(1), stream.IntValue(0), stream.DoubleValue(1000),
		))
	}
	out, schema, err := dsms.RunGraphOnSlice(c.Graph, c.Schema, input)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if schema.Len() != 2 || schema.Field(1).Name != "avgrainrate" {
		t.Fatalf("schema = %v", schema)
	}
	// 30 tuples, window 10 step 2: windows close at tuple 10,12,...,30 = 11.
	if len(out) != 11 {
		t.Fatalf("out = %d windows, want 11", len(out))
	}
	// First window avg = avg(51..60) = 55.5.
	if out[0].Values[1].Double() != 55.5 {
		t.Errorf("first avg = %v", out[0].Values[1])
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "samplingtime", Type: stream.TypeTimestamp},
		stream.Field{Name: "rainrate", Type: stream.TypeDouble},
		stream.Field{Name: "windspeed", Type: stream.TypeDouble},
	)
	g := dsms.NewQueryGraph("weather",
		dsms.NewFilterBox(expr.MustParse("rainrate > 5")),
		dsms.NewMapBox("samplingtime", "rainrate", "windspeed"),
		dsms.NewAggregateBox(dsms.WindowSpec{Type: dsms.WindowTuple, Size: 5, Step: 2},
			dsms.AggSpec{Attr: "samplingtime", Func: dsms.AggLastVal},
			dsms.AggSpec{Attr: "rainrate", Func: dsms.AggAvg},
			dsms.AggSpec{Attr: "windspeed", Func: dsms.AggMax}),
	)
	text, err := GenerateString(g, schema)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, want := range []string{
		"CREATE INPUT STREAM weather",
		"WHERE rainrate > 5",
		"CREATE WINDOW _5tuple (SIZE 5 ADVANCE 2 TUPLES);",
		"lastval(samplingtime) AS lastvalsamplingtime",
		"avg(rainrate) AS avgrainrate",
		"max(windspeed) AS maxwindspeed",
		"INTO output;",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated script missing %q:\n%s", want, text)
		}
	}
	// Round trip: compile the generated text back to an equivalent graph.
	c, err := CompileString(text)
	if err != nil {
		t.Fatalf("re-compile: %v", err)
	}
	if len(c.Graph.Boxes) != 3 {
		t.Fatalf("round-tripped boxes = %d", len(c.Graph.Boxes))
	}
	if !expr.Equal(c.Graph.Boxes[0].Condition, g.Boxes[0].Condition) {
		t.Error("filter condition survived round trip")
	}
	if !c.Graph.Boxes[2].Window.Equal(g.Boxes[2].Window) {
		t.Error("window survived round trip")
	}
}

func TestGenerateIdentityGraph(t *testing.T) {
	schema := stream.MustSchema(stream.Field{Name: "a", Type: stream.TypeInt})
	g := dsms.NewQueryGraph("s")
	text, err := GenerateString(g, schema)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	c, err := CompileString(text)
	if err != nil {
		t.Fatalf("compile identity: %v\n%s", err, text)
	}
	if len(c.Graph.Boxes) != 0 {
		t.Errorf("identity graph boxes = %d", len(c.Graph.Boxes))
	}
}

// TestGeneratePartitionSubStream: a query part on a replicated
// partitioned stream's partition reads the sub-stream "name@p", and a
// remote shard deploys it from the generated script, so the script
// must compile back to that input.
func TestGeneratePartitionSubStream(t *testing.T) {
	schema := stream.MustSchema(stream.Field{Name: "a", Type: stream.TypeInt})
	g := dsms.NewQueryGraph("gps@1", dsms.NewFilterBox(expr.MustParse("a > 1")))
	text, err := GenerateString(g, schema)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	c, err := CompileString(text)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, text)
	}
	if c.Input != "gps@1" {
		t.Errorf("input = %q, want gps@1", c.Input)
	}
	if _, err := Parse("CREATE INPUT STREAM @s (a int);"); err == nil {
		t.Error("an identifier may not start with '@'")
	}
}

func TestGenerateWithoutSchema(t *testing.T) {
	g := dsms.NewQueryGraph("s", dsms.NewFilterBox(expr.MustParse("a > 1")))
	text, err := GenerateString(g, nil)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if strings.Contains(text, "CREATE INPUT STREAM") {
		t.Error("schema-less generation must omit input declaration")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT;",
		"CREATE TABLE x;",
		"CREATE STREAM;",
		"CREATE INPUT STREAM s (a blob);",
		"CREATE WINDOW w (SIZE x ADVANCE 1 TUPLES);",
		"CREATE INPUT STREAM s (a int); SELECT a FROM s WHERE a > 1;", // WHERE without INTO
		"CREATE INPUT STREAM s (a int); SELECT a FROM s INTO",
		"CREATE INPUT STREAM s (a int); SELECT median(a) FROM s INTO o;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			if _, err2 := CompileString(src); err2 == nil {
				t.Errorf("Parse/Compile(%q) should fail", src)
			}
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		// No input stream.
		"CREATE STREAM o; SELECT a FROM s INTO o;",
		// Two input streams.
		"CREATE INPUT STREAM a (x int); CREATE INPUT STREAM b (x int);",
		// SELECT into undeclared stream.
		"CREATE INPUT STREAM s (a int); SELECT a FROM s INTO nowhere;",
		// Unreachable SELECT.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; SELECT a FROM other INTO o;",
		// Aggregate without window.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; SELECT avg(a) AS x FROM s INTO o;",
		// Window without aggregates.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; CREATE WINDOW w (SIZE 2 ADVANCE 1 TUPLES); SELECT a FROM s[w] INTO o;",
		// Undeclared window.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; SELECT avg(a) AS x FROM s[w] INTO o;",
		// Mixing aggregates and plain attrs.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; CREATE WINDOW w (SIZE 2 ADVANCE 1 TUPLES); SELECT avg(a) AS x, a FROM s[w] INTO o;",
		// Graph fails schema validation.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; SELECT b FROM s INTO o;",
		// Two SELECTs from the same stream.
		"CREATE INPUT STREAM s (a int); CREATE STREAM o; CREATE STREAM p; SELECT a FROM s INTO o; SELECT a FROM s INTO p;",
	}
	for _, src := range bad {
		if _, err := CompileString(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestParseSecondsWindow(t *testing.T) {
	src := "CREATE INPUT STREAM s (a int); CREATE OUTPUT STREAM o; CREATE WINDOW w (SIZE 5 ADVANCE 2 SECONDS); SELECT sum(a) AS suma FROM s[w] INTO o;"
	c, err := CompileString(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	w := c.Graph.Boxes[0].Window
	if w.Type != dsms.WindowTime || w.Size != 5000 || w.Step != 2000 {
		t.Errorf("window = %v", w)
	}
}

func TestParseComments(t *testing.T) {
	src := `-- input decl
CREATE INPUT STREAM s (a int); -- schema
CREATE OUTPUT STREAM o;
SELECT * FROM s WHERE a > 1 INTO o;`
	if _, err := CompileString(src); err != nil {
		t.Fatalf("comments should be ignored: %v", err)
	}
}

func TestScriptString(t *testing.T) {
	script, err := Parse(fig4bScript)
	if err != nil {
		t.Fatal(err)
	}
	// Rendering then re-parsing keeps statement count.
	again, err := Parse(script.String())
	if err != nil {
		t.Fatalf("re-parse rendered script: %v\n%s", err, script.String())
	}
	if len(again.Statements) != len(script.Statements) {
		t.Errorf("statement count %d != %d", len(again.Statements), len(script.Statements))
	}
}

// Regression: a dangling CREATE at end of input must error, not panic
// (found by FuzzParseScript).
func TestParseDanglingCreate(t *testing.T) {
	for _, src := range []string{"CREATE", "CREATE ", "CREATE INPUT", "CREATE INPUT STREAM", "CREATE WINDOW w (SIZE"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
