package main

import (
	"fmt"
	"math"

	"edgehd/internal/core"
	"edgehd/internal/hdc"
	"edgehd/internal/hierarchy"
	"edgehd/internal/netsim"
)

// The checks in this file recompute the program's answers with the
// benchmark's own arithmetic: exact integer dot products and sums over
// the raw class accumulators, and its own temperature softmax. They
// share no code with the program's associative search.

// tieTolerance is how far below the best cosine the program's chosen
// class may lie and still count as a tie: the program scores against
// pre-normalised float vectors, the benchmark against integers, so an
// exact tie can resolve either way by one rounding step.
const tieTolerance = 1e-12

// confTolerance bounds the difference between the program's confidence
// and the benchmark's own softmax of the same similarities.
const confTolerance = 1e-9

// ownScores returns the cosine of q to every class accumulator of m,
// the winning class (first on ties) and its temperature-softmax
// confidence.
func ownScores(m *core.Model, q hdc.Bipolar) (sims []float64, class int, conf float64) {
	words := q.Words()
	d := q.Dim()
	sims = make([]float64, m.Classes())
	for c := range sims {
		var dot, sq int64
		for i, v := range m.Class(c).Ints() {
			if words[i/64]>>(uint(i)%64)&1 == 1 {
				dot += int64(v)
			} else {
				dot -= int64(v)
			}
			sq += int64(v) * int64(v)
		}
		if sq > 0 {
			sims[c] = float64(dot) / math.Sqrt(float64(sq)) / math.Sqrt(float64(d))
		}
	}
	for c, s := range sims {
		if s > sims[class] {
			class = c
		}
	}
	z := 0.0
	for _, s := range sims {
		z += math.Exp((s - sims[class]) / core.ConfidenceTemperature)
	}
	return sims, class, 1 / z
}

// checkClass compares a class and confidence the program reported for
// q against the benchmark's own scoring on m.
func checkClass(m *core.Model, q hdc.Bipolar, class int, conf float64) error {
	sims, own, ownConf := ownScores(m, q)
	if class < 0 || class >= len(sims) {
		return fmt.Errorf("class %d out of range [0,%d)", class, len(sims))
	}
	if class != own && sims[class] < sims[own]-tieTolerance {
		return fmt.Errorf("class %d (cosine %.6f) but class %d scores %.6f", class, sims[class], own, sims[own])
	}
	if math.Abs(conf-ownConf) > confTolerance {
		return fmt.Errorf("confidence %.12f, own softmax gives %.12f", conf, ownConf)
	}
	return nil
}

// routedAnswer is one routed query and what the program answered.
type routedAnswer struct {
	sample int
	entry  int
	res    hierarchy.InferResult
}

// checkRouted verifies a routed answer against the hierarchy's current
// models: the level matches the escalation count, the answering node
// is that many hops above the entry leaf, its class is the benchmark's
// own cosine argmax over that node's class accumulators, and an answer
// given below the root clears the confidence threshold by the
// benchmark's own softmax.
func checkRouted(sys *hierarchy.System, x []float64, a routedAnswer, threshold float64) error {
	r := a.res
	if r.Level != r.Escalations+1 {
		return fmt.Errorf("entry %d: level %d with %d escalations", a.entry, r.Level, r.Escalations)
	}
	topo := sys.Topology()
	node := topo.EndNodes[a.entry]
	for i := 0; i < r.Escalations; i++ {
		node = topo.Net.Parent(node)
		if node == netsim.InvalidNode {
			return fmt.Errorf("entry %d: %d escalations climb past the root", a.entry, r.Escalations)
		}
	}
	if node != r.Node {
		return fmt.Errorf("entry %d: answered at node %d, %d hops up is node %d", a.entry, r.Node, r.Escalations, node)
	}
	q, err := sys.Query(r.Node, x)
	if err != nil {
		return fmt.Errorf("entry %d: query at node %d: %w", a.entry, r.Node, err)
	}
	_, _, ownConf := ownScores(sys.NodeModel(r.Node), q)
	if r.Node != topo.Central && ownConf < threshold {
		return fmt.Errorf("entry %d: answered at level %d below the root with own confidence %.6f < threshold %.2f", a.entry, r.Level, ownConf, threshold)
	}
	if err := checkClass(sys.NodeModel(r.Node), q, r.Class, r.Confidence); err != nil {
		return fmt.Errorf("entry %d node %d: %w", a.entry, r.Node, err)
	}
	return nil
}

// labelSums is the benchmark's own per-label sum of encoded rows: the
// model that joint training on the union of all rows produces.
type labelSums [][]int64

func newLabelSums(classes, dim int) labelSums {
	s := make(labelSums, classes)
	for c := range s {
		s[c] = make([]int64, dim)
	}
	return s
}

// add bundles one encoded row into its label (sign=+1) or removes it
// (sign=-1).
func (s labelSums) add(label int, hv hdc.Bipolar, sign int64) {
	words := hv.Words()
	for i := range s[label] {
		if words[i/64]>>(uint(i)%64)&1 == 1 {
			s[label][i] += sign
		} else {
			s[label][i] -= sign
		}
	}
}

// equal reports the first class and component where m differs from s.
func (s labelSums) equal(m *core.Model) error {
	if m.Classes() != len(s) {
		return fmt.Errorf("model has %d classes, want %d", m.Classes(), len(s))
	}
	for c := range s {
		ints := m.Class(c).Ints()
		if len(ints) != len(s[c]) {
			return fmt.Errorf("class %d has dim %d, want %d", c, len(ints), len(s[c]))
		}
		for i, v := range ints {
			if int64(v) != s[c][i] {
				return fmt.Errorf("class %d component %d is %d, own sum is %d", c, i, v, s[c][i])
			}
		}
	}
	return nil
}

// checkFloor fails when accuracy does not clear the floor.
func checkFloor(what string, accuracy, floor float64) error {
	if accuracy < floor {
		return fmt.Errorf("%s accuracy %.4f below floor %.2f", what, accuracy, floor)
	}
	return nil
}
