package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"edgehd/internal/hdc"
	"edgehd/internal/serve"
)

// Toy sizes: every workload end to end in well under a second each.

func toyDepth3() depth3Config {
	c := depth3()
	c.dim, c.universe, c.train, c.queries, c.reps, c.floor = 512, 400, 150, 50, 2, 0.5
	c.writeRound = 10
	return c
}

func toyCity() cityConfig {
	c := city()
	c.dim, c.universe, c.train, c.queries, c.reps = 1000, 600, 100, 200, 2
	c.prefix, c.sweepEvery, c.floor = 100, 50, 0.4
	return c
}

func toyFed() fedConfig {
	c := fed()
	c.tenants = []tenantShape{
		{name: "isolet", dataset: "ISOLET", dim: 512, universe: 300, train: 130, pool: 30, floor: 0.2},
		{name: "pdp", dataset: "PDP", dim: 256, universe: 300, train: 100, pool: 20, floor: 0.6},
	}
	c.rate, c.window, c.reps, c.feedbackPerSweep = 300, 4, 2, 3
	return c
}

func toyOpts(trace bool) runOpts {
	o := runOpts{seed: 3, seconds: 300 * time.Millisecond}
	if trace {
		o.trace = newTracer()
	}
	return o
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the runs print
// in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no run", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the benchmark prints %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, printed %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, printed %+v", i, m, perLayer[i])
		}
	}
}

// TestWorkloads runs each workload at toy size, untraced and traced:
// every check passes, no operation fails and every metric is printed.
func TestWorkloads(t *testing.T) {
	runs := map[string]func(runOpts) (*report, error){
		"infer-depth3": func(o runOpts) (*report, error) { return runDepth3(toyDepth3(), o) },
		"online-city":  func(o runOpts) (*report, error) { return runCity(toyCity(), o) },
		"serve-fed":    func(o runOpts) (*report, error) { return runFed(toyFed(), o) },
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			rep, err := run(toyOpts(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			names := perLayer
			if !traced {
				names = endToEnd
			}
			var want []string
			for _, m := range names {
				// Toy runs are too short to support a 99th percentile.
				if m.name != "query_p99_ms" && m.name != "peak_rss_mb" {
					want = append(want, m.name)
				}
			}
			rep.keep(want)
			if !rep.correct() || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v failures=%v",
					name, traced, rep.correct(), rep.attempted, rep.failed, rep.problems, rep.failures)
			}
		}
	}
}

// The checks below are fed deliberately wrong answers; each must fail.

func toyHier(t *testing.T) (*hierSystem, routedAnswer) {
	t.Helper()
	cfg := toyDepth3()
	h, _, _, err := setUpHier(cfg.hierShape, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find an answer given below the root, so every check applies.
	for j, x := range h.queries {
		entry := j % len(h.sys.Topology().EndNodes)
		res, err := h.sys.Infer(x, entry)
		if err != nil {
			t.Fatal(err)
		}
		if res.Node != h.sys.Topology().Central {
			return h, routedAnswer{sample: j, entry: entry, res: res}
		}
	}
	t.Fatal("no query answered below the root")
	return nil, routedAnswer{}
}

func TestCheckRoutedBites(t *testing.T) {
	h, a := toyHier(t)
	x := h.queries[a.sample]
	threshold := h.sys.Config().ConfidenceThreshold
	if err := checkRouted(h.sys, x, a, threshold); err != nil {
		t.Fatalf("a true answer fails: %v", err)
	}
	flipped := a
	flipped.res.Class = (a.res.Class + 1) % h.sys.Classes()
	if checkRouted(h.sys, x, flipped, threshold) == nil {
		t.Error("a flipped class passes")
	}
	levels := a
	levels.res.Level++
	if checkRouted(h.sys, x, levels, threshold) == nil {
		t.Error("level != escalations+1 passes")
	}
	conf := a
	conf.res.Confidence -= 0.01
	if checkRouted(h.sys, x, conf, threshold) == nil {
		t.Error("a confidence the own softmax does not give passes")
	}
	// Answered below the root with the benchmark's own confidence under
	// the threshold: ask for a threshold the answer cannot clear.
	if checkRouted(h.sys, x, a, 1.01) == nil {
		t.Error("a below-root answer under the threshold passes")
	}
	// A perturbed class accumulator at the answering node changes the
	// benchmark's own scores but not the recorded answer.
	m := h.sys.NodeModel(a.res.Node)
	c := m.Class(a.res.Class)
	ints := c.Ints()
	for i := range ints {
		ints[i] = -ints[i]
	}
	if err := m.SetClass(a.res.Class, hdc.AccFromInts(ints)); err != nil {
		t.Fatal(err)
	}
	if checkRouted(h.sys, x, a, threshold) == nil {
		t.Error("an answer from a perturbed class accumulator passes")
	}
}

func TestSecondSweepBites(t *testing.T) {
	h, a := toyHier(t)
	if _, err := h.sys.PropagateResiduals(); err != nil {
		t.Fatal(err)
	}
	again, err := h.sys.PropagateResiduals()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSecondSweep(again); err != nil {
		t.Fatalf("a sweep straight after a sweep fails: %v", err)
	}
	// Feedback between the two sweeps: the second one moves bytes.
	if _, err := h.sys.NegativeFeedbackBroadcast(a.entry, h.queries[a.sample], a.res.Class); err != nil {
		t.Fatal(err)
	}
	moved, err := h.sys.PropagateResiduals()
	if err != nil {
		t.Fatal(err)
	}
	if checkSecondSweep(moved) == nil {
		t.Error("a sweep after fresh feedback passes as an empty second sweep")
	}
}

func TestCheckMergeBites(t *testing.T) {
	cfg := toyFed()
	tn, err := newTenant(cfg.tenants[1], 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := federate(tn, cfg.workers); err != nil {
		t.Fatal(err)
	}
	if err := checkMerge(tn); err != nil {
		t.Fatalf("the federated model fails: %v", err)
	}
	ints := tn.model.Class(0).Ints()
	ints[0]++
	if err := tn.model.SetClass(0, hdc.AccFromInts(ints)); err != nil {
		t.Fatal(err)
	}
	if checkMerge(tn) == nil {
		t.Error("a perturbed class accumulator passes as the joint sum")
	}
}

// flipOne answers class 1 where the model says class 0.
type flipOne struct{ serve.Model }

func (f flipOne) Confidence(q hdc.Bipolar) (int, float64) {
	c, conf := f.Model.Confidence(q)
	if c == 0 {
		c = 1
	}
	return c, conf
}

func TestServedRepliesBite(t *testing.T) {
	cfg := toyFed()
	cfg.wrap = func(m serve.Model) serve.Model { return flipOne{m} }
	rep, err := runFed(cfg, toyOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct() || rep.failed == 0 {
		t.Errorf("a model that flips one class serves unnoticed: correct=%v failed=%d", rep.correct(), rep.failed)
	}
	found := false
	for _, p := range rep.problems {
		found = found || strings.Contains(p, "direct Confidence gives")
	}
	if !found {
		t.Errorf("no reply mismatch reported: %v", rep.problems)
	}
}

func TestFloorBites(t *testing.T) {
	if checkFloor("x", 0.49, 0.5) == nil || checkFloor("x", 0.5, 0.5) != nil {
		t.Error("accuracy floor misjudged")
	}
}

func TestP99NeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = float64(i%1000+1) / 1000 // seconds
	}
	rep := &report{}
	rep.addLatency("q", "ms", samples)
	if len(rep.metrics) != 2 || rep.metrics[0].value != 500 || rep.metrics[1].value != 990 || rep.metrics[1].n != 2000 {
		t.Errorf("quantiles = %+v", rep.metrics)
	}
	short := &report{}
	short.addLatency("q", "ms", samples[:999])
	if len(short.metrics) != 1 {
		t.Errorf("999 samples printed a p99: %+v", short.metrics)
	}
}
