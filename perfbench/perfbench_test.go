package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// generated serializes every input a run of o sends to the program.
func generated(t *testing.T, o options) []byte {
	t.Helper()
	var v any
	switch o.workload {
	case "exact-batch":
		v = exactBatchOps(o.seed, o.quick)
	case "auto-scale":
		v = autoScaleOps(o.seed, o.quick)
	default:
		in := daemonMixedInputs(o.seed, planFor(o), 2)
		var bodies [][]byte
		for _, sh := range in.stream {
			bodies = append(bodies, sh.body)
		}
		for _, sc := range in.sessions {
			bodies = append(bodies, sc.createBody)
			for _, st := range sc.steps {
				bodies = append(bodies, st.body)
			}
		}
		v = bodies
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for name := range workloads {
		o := options{workload: name, seed: 11, seconds: 2}
		a, b := generated(t, o), generated(t, o)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 generated different inputs twice", name)
		}
		o.seed = 12
		if bytes.Equal(a, generated(t, o)) {
			t.Errorf("%s: seeds 11 and 12 generated identical inputs", name)
		}
	}
}

func TestShortRunReportsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			var out, errOut bytes.Buffer
			o := options{workload: name, seed: 5, seconds: 1, trace: trace, quick: true, spanDir: t.TempDir()}
			if code := execute(o, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s%s", name, trace, code, out.String(), errOut.String())
			}
			text := strings.TrimSpace(out.String())
			var res result
			if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, sp := range specs {
				if m, ok := res.Metrics[sp.name]; !ok || m.Unit != sp.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, sp.name, m, sp.unit)
				}
				if !strings.Contains(text, "  "+sp.name+" ") {
					t.Errorf("%s trace=%v: report does not print %s", name, trace, sp.name)
				}
			}
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the command", w.Name)
		}
	}
	for _, c := range []struct {
		set   string
		got   []declared
		specs []metricSpec
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", c.set, len(c.got), len(c.specs))
			continue
		}
		for i, sp := range c.specs {
			if c.got[i] != (declared{sp.name, sp.unit}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command reports %s in %s", c.set, i, c.got[i], sp.name, sp.unit)
			}
		}
	}
}
