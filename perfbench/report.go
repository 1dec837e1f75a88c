package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// report is the outcome of one benchmark run: how many operations were
// attempted and how many failed, whether every check on the program's
// outputs held, and the metrics in the order they are printed.
type report struct {
	attempted int
	failed    int
	// failures describe failed operations; problems describe failed
	// checks on the outputs of operations that succeeded. Only problems
	// make a run incorrect.
	failures []string
	problems []string
	metrics  []metric
}

// metric is one printed figure. n is the number of raw samples behind
// a quantile (0 for figures that are not sample statistics).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// maxProblems bounds how many failed-check messages a run keeps; the
// first few name the fault, the rest only repeat it.
const maxProblems = 20

// op counts one attempted operation and, when err is non-nil, one
// failed operation. It reports whether the operation succeeded.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = appendCapped(r.failures, err.Error())
		return false
	}
	return true
}

// ops counts n attempted operations of which failed failed.
func (r *report) ops(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// problem records a failed check: the run then reports correct=false.
func (r *report) problem(format string, args ...any) {
	r.problems = appendCapped(r.problems, fmt.Sprintf(format, args...))
}

func appendCapped(list []string, msg string) []string {
	switch {
	case len(list) < maxProblems:
		return append(list, msg)
	case len(list) == maxProblems:
		return append(list, "further messages suppressed")
	}
	return list
}

// check records a problem when err is non-nil.
func (r *report) check(err error) {
	if err != nil {
		r.problem("%v", err)
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// addMedian adds the median of raw samples (in seconds) under name,
// scaled to unit.
func (r *report) addMedian(name, unit string, samples []float64) {
	sorted := sortedCopy(samples)
	if len(sorted) == 0 {
		r.problem("%s: no samples", name)
		return
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: quantile(sorted, 0.5) * unitScale(unit), n: len(sorted)})
}

// addTenantMedians adds the mean over tenants of the median of each
// tenant's raw samples (in seconds) under name, scaled to unit.
func (r *report) addTenantMedians(name, unit string, perTenant [][]float64) {
	sum, n := 0.0, 0
	for k, samples := range perTenant {
		if len(samples) == 0 {
			r.problem("%s: no samples for tenant %d", name, k)
			return
		}
		sum += quantile(sortedCopy(samples), 0.5)
		n += len(samples)
	}
	if n == 0 {
		r.problem("%s: no samples", name)
		return
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: sum / float64(len(perTenant)) * unitScale(unit), n: n})
}

// addLatency adds prefix_p50_<unit> and, when the samples support it,
// prefix_p99_<unit>.
func (r *report) addLatency(prefix, unit string, samples []float64) {
	r.addMedian(prefix+"_p50_"+unit, unit, samples)
	r.addP99(prefix+"_p99_"+unit, unit, samples)
}

// tailWindow is how many consecutive samples each 99th percentile is
// taken over.
const tailWindow = 1000

// addP99 adds the tail of samples (in seconds, in the order they were
// taken): the median, over consecutive windows of tailWindow samples,
// of each window's 99th percentile — ten samples lie beyond each. On a
// shared host, stalls of several milliseconds arrive in bursts; the
// median over windows keeps a burst in one window from setting the
// whole run's tail. Fewer than tailWindow samples print no tail.
func (r *report) addP99(name, unit string, samples []float64) {
	windows := len(samples) / tailWindow
	if windows == 0 {
		return
	}
	p99s := make([]float64, windows)
	for w := range p99s {
		p99s[w] = quantile(sortedCopy(samples[w*tailWindow:(w+1)*tailWindow]), 0.99)
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: quantile(sortedCopy(p99s), 0.5) * unitScale(unit), n: windows * tailWindow})
}

// quantile is the nearest-rank p-quantile of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// unitScale converts seconds to the given time unit (1 for other units).
func unitScale(unit string) float64 {
	switch unit {
	case "ms":
		return 1e3
	case "us":
		return 1e6
	}
	return 1
}

// ratio divides, reading 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// write prints one line per metric (with its sample count), the
// problems found, and — as the last line — the JSON result.
func (r *report) write(w io.Writer) error {
	for _, m := range r.metrics {
		if m.n > 0 {
			fmt.Fprintf(w, "%-36s %14.6g %-8s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// keep keeps only the named metrics, in the given order, and records
// a problem for any that the run did not produce.
func (r *report) keep(names []string) {
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	var kept []metric
	var missing []string
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		kept = append(kept, m)
	}
	if len(missing) > 0 {
		r.problem("metrics not produced: %s", strings.Join(missing, ", "))
	}
	r.metrics = kept
}
