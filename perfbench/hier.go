package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"edgehd/internal/dataset"
	"edgehd/internal/hierarchy"
	"edgehd/internal/netsim"
	"edgehd/internal/rng"
	"edgehd/internal/telemetry"
)

// universeSeed fixes every generated dataset: its class geometry and
// the rows the models train on (the repository's experiment default).
// A run's --seed draws the queries — which of the remaining rows, in
// which order — and the serving workload's arrival times. Seeds then
// vary the inputs the system answers without moving the models, so the
// share of queries each hierarchy level answers, and with it the work
// per query, stays put; with the geometry or the training rows drawn
// per seed, that share moved bytes per query and latency by 15 to 25%
// between seeds, and a bundled ISOLET model's accuracy by 0.63 to 0.82.
const universeSeed = 42

// systemSeed seeds the hierarchy's encoders and projections: part of
// the program's configuration, fixed like the paper's defaults.
const systemSeed = universeSeed + 7

// sample generates a dataset's universe of rows and returns train fixed
// training rows followed by queries rows drawn, in order, by seed.
func sample(name string, universe, train, queries int, seed uint64) (*dataset.Dataset, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	u := spec.Generate(universeSeed, dataset.Options{MaxTrain: universe, MaxTest: 1})
	if len(u.TrainX) < universe || train+queries > universe {
		return nil, fmt.Errorf("%s: %d rows generated, %d+%d wanted from a universe of %d", name, len(u.TrainX), train, queries, universe)
	}
	rows := rng.New(universeSeed).Perm(universe)
	rest := append([]int(nil), rows[train:]...)
	for i, j := range rng.New(seed).Perm(len(rest))[:queries] {
		rows[train+i] = rest[j]
	}
	d := &dataset.Dataset{Spec: spec, Partition: u.Partition}
	for _, i := range rows[:train+queries] {
		d.TrainX = append(d.TrainX, u.TrainX[i])
		d.TrainY = append(d.TrainY, u.TrainY[i])
	}
	return d, nil
}

// hierShape fixes a hierarchy workload's dataset, topology and sizes.
type hierShape struct {
	dataset  string
	topology func(endNodes int) (*netsim.Topology, error)
	dim      int
	// retrainEpochs of per-node retraining (0 = the paper's 20).
	retrainEpochs int
	// universe is how many rows the generator makes: train fixed rows
	// train the hierarchy and queries rows drawn by the seed query it.
	universe, train, queries int
	// reps is how often set-up and training repeat to take medians.
	reps int
}

// hierSystem is one built and trained hierarchy with its inputs.
type hierSystem struct {
	sys *hierarchy.System
	reg *telemetry.Registry
	// queries and labels are the drawn rows the hierarchy did not train on.
	queries    [][]float64
	labels     []int
	trainBytes int64
	// under[n] lists the leaves in node n's subtree, for the traced
	// replay of leaf encodes.
	under [][]netsim.NodeID
}

// setUpHier builds and trains the hierarchy reps times from the seed
// and returns the last one, with each repetition's set-up time (data
// generation and Build) and training time in seconds.
func setUpHier(s hierShape, seed uint64, reps int) (*hierSystem, []float64, []float64, error) {
	var h *hierSystem
	var setups, trains []float64
	for r := 0; r < reps; r++ {
		h = nil
		runtime.GC() // start every repetition from the same heap state
		t0 := time.Now()
		d, err := sample(s.dataset, s.universe, s.train, s.queries, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		topo, err := s.topology(d.Spec.EndNodes)
		if err != nil {
			return nil, nil, nil, err
		}
		reg := telemetry.New()
		sys, err := hierarchy.BuildForDataset(topo, d, hierarchy.Config{TotalDim: s.dim, RetrainEpochs: s.retrainEpochs, Seed: systemSeed, Telemetry: reg})
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // the generated universe is garbage now; the peak RSS should not hinge on when it goes
		t1 := time.Now()
		tr, err := sys.Train(d.TrainX[:s.train], d.TrainY[:s.train])
		if err != nil {
			return nil, nil, nil, err
		}
		trains = append(trains, time.Since(t1).Seconds())
		h = &hierSystem{sys: sys, reg: reg, queries: d.TrainX[s.train:], labels: d.TrainY[s.train:], trainBytes: tr.Bytes, under: leavesUnder(topo)}
	}
	return h, setups, trains, nil
}

func leavesUnder(topo *netsim.Topology) [][]netsim.NodeID {
	under := make([][]netsim.NodeID, topo.Net.NumNodes())
	for _, leaf := range topo.EndNodes {
		for n := leaf; n != netsim.InvalidNode; n = topo.Net.Parent(n) {
			under[n] = append(under[n], leaf)
		}
	}
	return under
}

// hierCounts are the program's own registry counters that the
// per-layer metrics divide by the operations they bracket.
type hierCounts struct {
	encodes, projOps, searches, poolRuns int64
	mallocs                              uint64
	gcs                                  uint32
}

func readHierCounts(reg *telemetry.Registry) hierCounts {
	snap := reg.Snapshot()
	c := hierCounts{
		encodes:  snap.Counters["hier_encode_total"],
		projOps:  snap.Counters["hier_projection_ops_total"],
		searches: snap.Counters["hier_assoc_search_total"],
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "pool_runs_total") {
			c.poolRuns += v
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcs = ms.Mallocs, ms.NumGC
	return c
}

func (c hierCounts) sub(o hierCounts) hierCounts {
	return hierCounts{
		encodes: c.encodes - o.encodes, projOps: c.projOps - o.projOps,
		searches: c.searches - o.searches, poolRuns: c.poolRuns - o.poolRuns,
		mallocs: c.mallocs - o.mallocs, gcs: c.gcs - o.gcs,
	}
}

func (c hierCounts) add(o hierCounts) hierCounts {
	return hierCounts{
		encodes: c.encodes + o.encodes, projOps: c.projOps + o.projOps,
		searches: c.searches + o.searches, poolRuns: c.poolRuns + o.poolRuns,
		mallocs: c.mallocs + o.mallocs, gcs: c.gcs + o.gcs,
	}
}

// router issues routed queries and, on a traced run, brackets each one
// with counter reads and replays its path with spans.
type router struct {
	h  *hierSystem
	tr *tracer
	// untraced routes without the replay and counter reads, for queries
	// whose layer figures the run does not report.
	untraced bool
	// Accumulated over routed queries only (traced runs).
	counts      hierCounts
	feedbackEnc int64
}

// infer runs one routed query and returns its result and latency.
func (rt *router) infer(x []float64, entry int) (hierarchy.InferResult, float64, error) {
	if rt.tr == nil || rt.untraced {
		t0 := time.Now()
		res, err := rt.h.sys.Infer(x, entry)
		return res, time.Since(t0).Seconds(), err
	}
	root := rt.tr.begin("query", 0, entry)
	before := readHierCounts(rt.h.reg)
	id := rt.tr.begin("hierarchy.Infer", root, entry)
	res, err := rt.h.sys.Infer(x, entry)
	lat := rt.tr.end(id).Seconds()
	rt.counts = rt.counts.add(readHierCounts(rt.h.reg).sub(before))
	if err == nil {
		rt.replay(root, x, entry, res)
	}
	rt.tr.end(root)
	return res, lat, err
}

// replay re-walks a routed query's path with public calls: System.Query
// and Model.Confidence at every node visited, then the leaf encodes
// that each of those queries performs, one System.Query per leaf. The
// program's own spans would nest these; until it records them, the
// replay gives each layer's time.
func (rt *router) replay(root int, x []float64, entry int, res hierarchy.InferResult) {
	topo := rt.h.sys.Topology()
	node := topo.EndNodes[entry]
	for level := 1; level <= res.Level && node != netsim.InvalidNode; level++ {
		visit := rt.tr.begin("node", root, int(node))
		id := rt.tr.begin("hierarchy.Query", visit, int(node))
		q, err := rt.h.sys.Query(node, x)
		rt.tr.end(id)
		if err == nil {
			id = rt.tr.begin("core.Confidence", visit, int(node))
			rt.h.sys.NodeModel(node).Confidence(q)
			rt.tr.end(id)
		}
		// One span covers the leaf encodes of the node's subtree; a city
		// root has 312 of them.
		id = rt.tr.begin("encoding.Encode", visit, int(node))
		for _, leaf := range rt.h.under[node] {
			_, _ = rt.h.sys.Query(leaf, x) // timing only; the routed call already succeeded
		}
		rt.tr.end(id)
		rt.tr.end(visit)
		node = topo.Net.Parent(node)
	}
}

// feedback applies negative feedback for a rejected answer and returns
// how many devices accumulated it and the call's latency.
func (rt *router) feedback(x []float64, entry, rejected int) (int, float64, error) {
	id := rt.tr.begin("hierarchy.NegativeFeedbackBroadcast", 0, entry)
	var before int64
	if rt.tr != nil {
		before = rt.h.reg.Counter("hier_encode_total").Value()
	}
	t0 := time.Now()
	applied, err := rt.h.sys.NegativeFeedbackBroadcast(entry, x, rejected)
	lat := time.Since(t0).Seconds()
	rt.tr.end(id)
	if rt.tr != nil {
		rt.feedbackEnc += rt.h.reg.Counter("hier_encode_total").Value() - before
	}
	return applied, lat, err
}

// sweep propagates residuals, then runs a second sweep straight after,
// which must move nothing. It returns the first sweep's bytes and
// latency.
func (rt *router) sweep(rep *report) (int64, float64) {
	id := rt.tr.begin("hierarchy.PropagateResiduals", 0, -1)
	t0 := time.Now()
	first, err := rt.h.sys.PropagateResiduals()
	lat := time.Since(t0).Seconds()
	rt.tr.end(id)
	if !rep.op(err) {
		return 0, lat
	}
	again, err := rt.h.sys.PropagateResiduals()
	if rep.op(err) {
		rep.check(checkSecondSweep(again))
	}
	return first.Bytes, lat
}

func checkSecondSweep(r *hierarchy.OnlineReport) error {
	if r.Bytes != 0 {
		return fmt.Errorf("a sweep straight after a sweep moved %d bytes", r.Bytes)
	}
	return nil
}

// addHierLayers adds the per-layer metrics of a traced hierarchy run.
// The serving, wire and cluster layers read 0: these workloads bypass
// them. p50 holds the samples query_p50_ms is the median of, so that
// trace.query_p50_ms is the same statistic on the traced run.
func addHierLayers(rep *report, rt *router, queries, escalations, feedbacks int, sweepBytes []float64, p50 []float64) {
	q := float64(queries)
	c := rt.counts
	encode := rt.tr.total("encoding.Encode")
	rep.add("encoding.encodes_per_query", "count", ratio(float64(c.encodes), q))
	rep.add("encoding.ms_per_query", "ms", ratio(encode*1e3, q))
	rep.add("encoding.encodes_per_feedback", "count", ratio(float64(rt.feedbackEnc), float64(feedbacks)))
	rep.add("hierarchy.escalations_per_query", "count", ratio(float64(escalations), q))
	rep.add("hierarchy.projection_ops_per_query", "count", ratio(float64(c.projOps), q))
	rep.add("hierarchy.project_ms_per_query", "ms", ratio((rt.tr.total("hierarchy.Query")-encode)*1e3, q))
	rep.add("hierarchy.sweep_bytes", "B", mean(sweepBytes))
	rep.add("core.searches_per_query", "count", ratio(float64(c.searches), q))
	rep.add("core.search_us", "us", mean(rt.tr.durations("core.Confidence"))*1e6)
	rep.add("parallel.runs_per_query", "count", ratio(float64(c.poolRuns), q))
	addBypassed(rep, "serve.", "wire.", "cluster.")
	rep.add("runtime.allocs_per_query", "count", ratio(float64(c.mallocs), q))
	rep.add("runtime.gc_cycles", "count", float64(c.gcs))
	rep.addMedian("trace.query_p50_ms", "ms", p50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stream is the prequential loop both hierarchy workloads share: each
// query goes through Infer, a wrong answer gets negative feedback at
// once, and after every round the round's answers are checked and the
// residuals swept.
type stream struct {
	rt        *router
	rep       *report
	rows      [][]float64
	labels    []int
	threshold float64
	// next is the position of the next query; it takes row
	// next mod len(rows) and enters at leaf next mod the leaf count.
	next int
	// Per-query, per-feedback and per-sweep samples, in seconds.
	lat, roundLat, fbLat, swLat, swBytes []float64
	answered, escalations                int
	wire                                 int64
	// busy is the time spent inside the program's calls.
	busy float64
	// correct reports each answered query's position and whether its
	// class matched the label.
	correct func(pos int, ok bool)
}

// round runs n queries, then checks them and sweeps.
func (s *stream) round(n int) {
	ends := len(s.rt.h.sys.Topology().EndNodes)
	answers := make([]routedAnswer, 0, n)
	roundBusy := 0.0
	for k := 0; k < n; k++ {
		pos := s.next
		s.next++
		j, entry := pos%len(s.rows), pos%ends
		res, l, err := s.rt.infer(s.rows[j], entry)
		s.busy += l
		if !s.rep.op(err) {
			continue
		}
		s.lat = append(s.lat, l)
		roundBusy += l
		answers = append(answers, routedAnswer{sample: j, entry: entry, res: res})
		s.answered++
		s.escalations += res.Escalations
		s.wire += res.WireBytes
		ok := res.Class == s.labels[j]
		if s.correct != nil {
			s.correct(pos, ok)
		}
		if ok {
			continue
		}
		applied, l, err := s.rt.feedback(s.rows[j], entry, res.Class)
		s.busy += l
		s.fbLat = append(s.fbLat, l)
		if s.rep.op(err) && applied < 1 {
			// The answering node predicted the rejected class and no sweep
			// has run since, so at least that node must accumulate it.
			s.rep.problem("query %d: feedback on class %d reached no device", pos, res.Class)
		}
	}
	// Feedback only writes residuals, so the models are still the ones
	// that gave this round's answers; the sweep below changes them.
	for _, a := range answers {
		s.rep.check(checkRouted(s.rt.h.sys, s.rows[a.sample], a, s.threshold))
	}
	if len(answers) > 0 {
		s.roundLat = append(s.roundLat, roundBusy/float64(len(answers)))
	}
	// The checks above re-encode every answer's query and make about as
	// much garbage as the round's queries did. Collecting it here keeps
	// it from taxing the program's next calls, and starts every round's
	// heap from its live data, so the peak RSS does not hinge on which
	// query a collection happened to interrupt.
	runtime.GC()
	b, l := s.rt.sweep(s.rep)
	s.busy += l
	s.swLat = append(s.swLat, l)
	s.swBytes = append(s.swBytes, float64(b))
}

// depth3Config shapes infer-depth3.
type depth3Config struct {
	hierShape
	// writeRound is how many queries of the write pass run between
	// residual sweeps.
	writeRound int
	floor      float64
}

// depth3 is the PDP analog on the four-level grouped tree at the
// paper's defaults.
func depth3() depth3Config {
	return depth3Config{
		hierShape: hierShape{
			dataset:  "PDP",
			topology: func(n int) (*netsim.Topology, error) { return netsim.Grouped(n, 4, netsim.Wired1G()) },
			dim:      4096, universe: 3000, train: 600, queries: 1000, reps: 5,
		},
		writeRound: 100,
		floor:      0.7,
	}
}

// runDepth3 measures routed inference in a closed loop with one caller,
// rotating the entry leaf, for the run's duration. A write pass then
// streams the queries once more prequentially, which gives the
// feedback and sweep figures without touching the read-only loop.
func runDepth3(cfg depth3Config, o runOpts) (*report, error) {
	rep := &report{}
	h, setups, trains, err := setUpHier(cfg.hierShape, o.seed, o.reps(cfg.reps))
	if err != nil {
		return nil, err
	}
	rep.addMedian("setup_s", "s", setups)
	rep.addMedian("train_s", "s", trains)
	rep.add("train_bytes", "B", float64(h.trainBytes))
	rt := &router{h: h, tr: o.trace}
	pool, labels := h.queries, h.labels
	ends := len(h.sys.Topology().EndNodes)
	threshold := h.sys.Config().ConfidenceThreshold
	first := make([]*routedAnswer, len(pool))
	// answer records row j's result; every repeat of a row must match
	// its first answer, which is checked in full below.
	answer := func(j int, res hierarchy.InferResult) {
		if first[j] == nil {
			first[j] = &routedAnswer{sample: j, entry: j % ends, res: res}
			return
		}
		f := first[j].res
		if f.Class != res.Class || f.Node != res.Node || f.Level != res.Level || f.Escalations != res.Escalations ||
			math.Float64bits(f.Confidence) != math.Float64bits(res.Confidence) || f.WireBytes != res.WireBytes {
			rep.problem("row %d answered %+v, earlier %+v", j, res, f)
		}
	}
	// Warm-up: one query per entry leaf builds each model's lazily
	// normalised class vectors. Checked, not timed.
	for j := 0; j < ends && j < len(pool); j++ {
		res, err := h.sys.Infer(pool[j], j%ends)
		if rep.op(err) {
			answer(j, res)
		}
	}
	var lat []float64
	var answered, correct, escalations int
	var wire int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < o.seconds; i++ {
		j := i % len(pool)
		res, l, err := rt.infer(pool[j], j%ends)
		if !rep.op(err) {
			continue
		}
		lat = append(lat, l)
		answer(j, res)
		answered++
		escalations += res.Escalations
		wire += res.WireBytes
		if res.Class == labels[j] {
			correct++
		}
	}
	wall := time.Since(start).Seconds()
	for j, a := range first {
		if a != nil {
			rep.check(checkRouted(h.sys, pool[j], *a, threshold))
		}
	}
	accuracy := ratio(float64(correct), float64(answered))
	rep.check(checkFloor("routed", accuracy, cfg.floor))

	// The write pass goes over the queries once; the per-query layer
	// figures are the read loop's.
	rt.untraced = true
	w := &stream{rt: rt, rep: rep, rows: pool, labels: labels, threshold: threshold}
	for w.next < len(pool) {
		w.round(cfg.writeRound)
	}

	if o.trace != nil {
		addHierLayers(rep, rt, answered, escalations, len(w.fbLat), w.swBytes, lat)
		return rep, nil
	}
	rep.addLatency("query", "ms", lat)
	rep.add("queries_per_s", "1/s", ratio(float64(answered), wall))
	rep.addMedian("feedback_p50_ms", "ms", w.fbLat)
	rep.addMedian("sweep_p50_ms", "ms", w.swLat)
	rep.add("infer_bytes_per_query", "B", ratio(float64(wire), float64(answered)))
	rep.add("accuracy", "fraction", accuracy)
	return rep, nil
}

// cityConfig shapes online-city.
type cityConfig struct {
	hierShape
	// prefix is how many stream queries prequential accuracy covers; a
	// run always gets that far.
	prefix int
	// sweepEvery is how many queries pass between residual sweeps.
	sweepEvery int
	floor      float64
}

// city is the Fig 8 PECAN city — 312 appliances, 26 houses, 4 streets
// — with Fig 8's 300 offline rows and 10 retraining epochs.
func city() cityConfig {
	return cityConfig{
		hierShape: hierShape{
			dataset:  "PECAN",
			topology: func(n int) (*netsim.Topology, error) { return netsim.GroupedSizes(n, []int{12, 7}, netsim.Wired1G()) },
			dim:      4000, retrainEpochs: 10, universe: 8000, train: 300, queries: 4000, reps: 5,
		},
		prefix: 2000, sweepEvery: 100,
		floor: 0.6,
	}
}

// runCity trains the city hierarchy, then streams queries
// prequentially in whole rounds until the run's duration has passed
// and the accuracy prefix is covered.
func runCity(cfg cityConfig, o runOpts) (*report, error) {
	rep := &report{}
	h, setups, trains, err := setUpHier(cfg.hierShape, o.seed, o.reps(cfg.reps))
	if err != nil {
		return nil, err
	}
	rep.addMedian("setup_s", "s", setups)
	rep.addMedian("train_s", "s", trains)
	rep.add("train_bytes", "B", float64(h.trainBytes))
	rt := &router{h: h, tr: o.trace}
	prefixCorrect := 0
	s := &stream{rt: rt, rep: rep, rows: h.queries, labels: h.labels, threshold: h.sys.Config().ConfidenceThreshold,
		correct: func(pos int, ok bool) {
			if ok && pos < cfg.prefix {
				prefixCorrect++
			}
		}}
	start := time.Now()
	for s.next < cfg.prefix || time.Since(start) < o.seconds {
		s.round(cfg.sweepEvery)
	}
	accuracy := float64(prefixCorrect) / float64(cfg.prefix)
	rep.check(checkFloor("prequential", accuracy, cfg.floor))
	if o.trace != nil {
		addHierLayers(rep, rt, s.answered, s.escalations, len(s.fbLat), s.swBytes, s.roundLat)
		return rep, nil
	}
	// Each level's queries form their own latency cluster, and about half
	// of the city's queries resolve at or below a house: the median
	// single query sits on the edge between the house and street
	// clusters and jumps fourfold between seeds. The median of each
	// round's mean is steady; the tail stays per query.
	rep.addMedian("query_p50_ms", "ms", s.roundLat)
	rep.addP99("query_p99_ms", "ms", s.lat)
	rep.add("queries_per_s", "1/s", ratio(float64(s.answered), s.busy))
	rep.addMedian("feedback_p50_ms", "ms", s.fbLat)
	rep.addMedian("sweep_p50_ms", "ms", s.swLat)
	rep.add("infer_bytes_per_query", "B", ratio(float64(s.wire), float64(s.answered)))
	rep.add("accuracy", "fraction", accuracy)
	return rep, nil
}
