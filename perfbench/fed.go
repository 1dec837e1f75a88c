package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edgehd/internal/cluster"
	"edgehd/internal/core"
	"edgehd/internal/dataset"
	"edgehd/internal/encoding"
	"edgehd/internal/hdc"
	"edgehd/internal/parallel"
	"edgehd/internal/rng"
	"edgehd/internal/serve"
	"edgehd/internal/telemetry"
	"edgehd/internal/wire"
)

// tenantShape fixes one serving tenant's data and model.
type tenantShape struct {
	name    string
	dataset string
	dim     int
	// universe is how many rows the generator makes: train fixed rows,
	// dealt round-robin to the federated workers, and pool rows drawn by
	// the seed that the client encodes as its queries.
	universe, train, pool int
	floor                 float64
}

// fedConfig shapes serve-fed.
type fedConfig struct {
	tenants []tenantShape
	workers int
	// rate is phase A's aggregate Poisson arrival rate, in queries per
	// second; window is phase B's queries in flight per connection.
	rate   float64
	window int
	reps   int
	// feedbackPerSweep is how many feedback events the write phase
	// folds into a tenant's residual between publishes.
	feedbackPerSweep int
	// wrap, when set, substitutes the model each tenant publishes, so
	// tests can feed the serving plane a deliberately wrong answer.
	wrap func(serve.Model) serve.Model
}

// fed serves an ISOLET analog (26 classes) and the PDP analog side by
// side, each trained by one federated round over four workers.
func fed() fedConfig {
	return fedConfig{
		tenants: []tenantShape{
			{name: "isolet", dataset: "ISOLET", dim: 4096, universe: 2000, train: 520, pool: 400, floor: 0.5},
			{name: "pdp", dataset: "PDP", dim: 2048, universe: 2000, train: 600, pool: 400, floor: 0.8},
		},
		workers: 4, rate: 500, window: 32, reps: 5, feedbackPerSweep: 2,
	}
}

// tenant is one tenant's drawn data, client-side query pool and
// published model.
type tenant struct {
	shape tenantShape
	spec  dataset.Spec
	// Rows [0, train) train the model; the rest are the query pool.
	d    *dataset.Dataset
	enc  *encoding.Sparse
	pool []hdc.Bipolar
	// poolY are the pool queries' labels.
	poolY []int
	model *core.Model
	// want is a direct Confidence call on the published model for every
	// pool query: the reply the serving plane must return, bit for bit.
	want []expected
}

type expected struct {
	class int32
	bits  uint64
}

// encoderSeed is the encoder seed every worker and the client share,
// part of the program's configuration.
const encoderSeed = universeSeed + 11

func (t *tenant) clusterConfig() cluster.Config {
	return cluster.Config{Features: t.spec.Features, Classes: t.spec.Classes, Dim: t.shape.dim, EncoderSeed: encoderSeed, Sparsity: 0.8}
}

// shards deals the training rows round-robin to the workers.
func (t *tenant) shards(workers int) []cluster.Shard {
	out := make([]cluster.Shard, workers)
	for i := 0; i < t.shape.train; i++ {
		s := &out[i%workers]
		s.X = append(s.X, t.d.TrainX[i])
		s.Y = append(s.Y, t.d.TrainY[i])
	}
	return out
}

// newTenant draws tenant k's rows from the seed and encodes its query
// pool with the encoder the workers share.
func newTenant(s tenantShape, k int, seed uint64) (*tenant, error) {
	d, err := sample(s.dataset, s.universe, s.train, s.pool, seed+uint64(k))
	if err != nil {
		return nil, err
	}
	t := &tenant{shape: s, spec: d.Spec, d: d, poolY: d.TrainY[s.train:]}
	cfg := t.clusterConfig()
	t.enc, err = encoding.NewSparse(cfg.Features, cfg.Dim, cfg.EncoderSeed, encoding.SparseConfig{Sparsity: cfg.Sparsity})
	if err != nil {
		return nil, err
	}
	t.pool = make([]hdc.Bipolar, s.pool)
	for i := range t.pool {
		t.pool[i] = t.enc.Encode(d.TrainX[s.train+i])
	}
	return t, nil
}

// countConn counts the bytes a worker's connection moves both ways.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// federate trains the tenant with cluster.Federated and returns the
// bytes its workers pushed and pulled.
func federate(t *tenant, workers int) (int64, error) {
	var moved atomic.Int64
	cfg := t.clusterConfig()
	cfg.WrapWorkerConn = func(_ int, c net.Conn) net.Conn { return countConn{Conn: c, n: &moved} }
	_, global, err := cluster.Federated(cfg, t.shards(workers))
	if err != nil {
		return 0, err
	}
	t.model = global
	return moved.Load(), nil
}

// stepRound runs one federated round through the public calls —
// Worker.Train, Worker.Push, Aggregator.ServeOne and Global,
// Worker.Pull — with a span around each, and returns the bytes the
// round moved.
func stepRound(t *tenant, workers, k int, tr *tracer) (int64, error) {
	root := tr.begin("cluster.round", 0, k)
	defer tr.end(root)
	cfg := t.clusterConfig()
	shards := t.shards(workers)
	agg, err := cluster.NewAggregator(cfg.Dim, cfg.Classes, workers)
	if err != nil {
		return 0, err
	}
	var moved atomic.Int64
	ws := make([]*cluster.Worker, workers)
	conns := make([]net.Conn, workers)
	merged := make(chan error, workers)
	served := make(chan error, workers)
	release := make(chan struct{})
	defer func() {
		for _, c := range conns {
			if c != nil {
				_ = c.Close() // unblocks any aggregator side still writing
			}
		}
		for _, c := range conns {
			if c != nil {
				<-served
			}
		}
	}()
	for i := range ws {
		w, err := cluster.NewWorker(cfg)
		if err != nil {
			return 0, err
		}
		id := tr.begin("cluster.Worker.Train", root, i)
		err = w.Train(shards[i].X, shards[i].Y)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		ws[i] = w
		workerEnd, aggEnd := net.Pipe()
		conns[i] = countConn{Conn: workerEnd, n: &moved}
		go func(slot int, c net.Conn) {
			defer c.Close() //nolint:errcheck // in-process pipe
			served <- agg.ServeOne(c, slot, merged, release)
		}(i, aggEnd)
	}
	for i, w := range ws {
		id := tr.begin("cluster.Worker.Push", root, i)
		err := w.Push(conns[i])
		tr.end(id)
		if err != nil {
			close(release)
			return 0, err
		}
	}
	for range ws {
		if err := <-merged; err != nil {
			close(release)
			return 0, err
		}
	}
	id := tr.begin("cluster.Aggregator.Global", root, -1)
	t.model = agg.Global()
	tr.end(id)
	close(release)
	for i, w := range ws {
		id := tr.begin("cluster.Worker.Pull", root, i)
		err := w.Pull(conns[i])
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return moved.Load(), nil
}

// checkMerge verifies the paper's merge-equals-joint-training property:
// the federated model equals the benchmark's own per-label sum of the
// encoded training rows, exactly.
func checkMerge(t *tenant) error {
	own := newLabelSums(t.spec.Classes, t.shape.dim)
	for i := 0; i < t.shape.train; i++ {
		own.add(t.d.TrainY[i], t.enc.Encode(t.d.TrainX[i]), 1)
	}
	if err := own.equal(t.model); err != nil {
		return fmt.Errorf("tenant %s: federated model is not the joint sum: %w", t.shape.name, err)
	}
	return nil
}

// heldOutAccuracy is the tenant's model's accuracy on every row of its
// universe that it did not train on. The floor is judged on these rows,
// not on the seed's pool: the model and the held-out rows are the same
// on every seed, so the check passes or fails on every seed alike. The
// pool is a seeded sample of them, and its accuracy strays from theirs
// by about 0.016 either way (pdp: 0.8257 held out, 0.7875 on one pool).
func heldOutAccuracy(t *tenant, seed uint64) (float64, error) {
	s := t.shape
	d, err := sample(s.dataset, s.universe, s.train, s.universe-s.train, seed)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i := s.train; i < s.universe; i++ {
		if c, _ := t.model.Confidence(t.enc.Encode(d.TrainX[i])); c == d.TrainY[i] {
			correct++
		}
	}
	return float64(correct) / float64(s.universe-s.train), nil
}

// timedModel times every associative search the server runs.
type timedModel struct {
	serve.Model
	tr     *tracer
	tenant int
}

func (m timedModel) Confidence(q hdc.Bipolar) (int, float64) {
	id := m.tr.begin("core.Confidence", 0, m.tenant)
	c, conf := m.Model.Confidence(q)
	m.tr.end(id)
	return c, conf
}

// server is one in-process serve.Server on loopback TCP, with one
// client connection per tenant.
type server struct {
	srv   *serve.Server
	reg   *telemetry.Registry
	conns []*clientConn
	done  chan error
}

type clientConn struct {
	nc net.Conn
	r  *bufio.Reader
	// buf assembles a whole frame so each query is one write.
	buf bytes.Buffer
}

func (c *clientConn) send(m wire.Message) error {
	c.buf.Reset()
	if err := wire.Write(&c.buf, m); err != nil {
		return err
	}
	_, err := c.nc.Write(c.buf.Bytes())
	return err
}

// startServer publishes every tenant's model, starts a server and
// connects one client per tenant.
func startServer(ts []*tenant, cfg fedConfig, tr *tracer) (*server, *serve.Registry, error) {
	registry := serve.NewRegistry()
	for k, t := range ts {
		var m serve.Model = t.model
		if tr != nil {
			m = timedModel{Model: m, tr: tr, tenant: k}
		}
		if cfg.wrap != nil {
			m = cfg.wrap(m)
		}
		if err := registry.Set(t.shape.name, m); err != nil {
			return nil, nil, err
		}
	}
	reg := telemetry.New()
	pool := parallel.New(0)
	pool.SetTelemetry(reg)
	srv, err := serve.NewServer(serve.Config{Registry: registry, Pool: pool, Telemetry: reg})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, nil, err
	}
	s := &server{srv: srv, reg: reg, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	for _, t := range ts {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.close()
			return nil, nil, err
		}
		c := &clientConn{nc: nc, r: bufio.NewReader(nc)}
		s.conns = append(s.conns, c)
		if err := c.send(wire.Message{Header: wire.Header{Type: wire.MsgHello}, Text: t.shape.name}); err != nil {
			s.close()
			return nil, nil, err
		}
	}
	// One round trip per connection before anything else: it proves the
	// server accepted the connection, and so registered its listener.
	// serve.Server.Close run before Serve has registered the listener
	// leaves Serve blocked in Accept for good.
	for k, c := range s.conns {
		err := c.send(wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: -1}, Bipolar: ts[k].pool[0]})
		if err == nil {
			var msg wire.Message
			msg, err = wire.Read(c.r)
			if err == nil && (msg.Header.Type != wire.MsgPredict || msg.Header.Batch != -1) {
				err = fmt.Errorf("warm-up query answered with frame type %d seq %d", msg.Header.Type, msg.Header.Batch)
			}
		}
		if err != nil {
			s.close()
			return nil, nil, err
		}
	}
	return s, registry, nil
}

// close drains the server, then closes the clients, and returns the
// server's counters: they are read only after the drain, when every
// admitted query has been answered.
func (s *server) close() serve.Stats {
	_ = s.srv.Close()
	<-s.done
	for _, c := range s.conns {
		_ = c.nc.Close()
	}
	return s.srv.Stats()
}

// setUpFed draws the tenants' data and encodes their query pools (the
// set-up), then trains them by federated rounds, reps times; it
// returns the last repetition's tenants with each repetition's set-up
// and training times and the bytes the last training moved. Training
// runs through cluster.Federated, or on a traced run through
// stepRound.
func setUpFed(cfg fedConfig, o runOpts, rep *report) ([]*tenant, []float64, []float64, int64, error) {
	var setups, trains []float64
	var ts []*tenant
	var moved int64
	for r := 0; r < o.reps(cfg.reps); r++ {
		ts = nil
		runtime.GC() // start every repetition from the same heap state
		t0 := time.Now()
		for k, s := range cfg.tenants {
			t, err := newTenant(s, k, o.seed)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			ts = append(ts, t)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // the generated universes are garbage now
		t1 := time.Now()
		moved = 0
		for k, t := range ts {
			var b int64
			var err error
			if o.trace != nil {
				b, err = stepRound(t, cfg.workers, k, o.trace)
			} else {
				b, err = federate(t, cfg.workers)
			}
			if !rep.op(err) {
				return nil, nil, nil, 0, fmt.Errorf("federated round for %s: %w", t.shape.name, err)
			}
			moved += b
		}
		trains = append(trains, time.Since(t1).Seconds())
	}
	return ts, setups, trains, moved, nil
}

// phaseResult is what one serving phase observed.
type phaseResult struct {
	sent, answered int
	// latency is each answered query's time from when it was due (phase
	// A) or sent (phase B) to its reply, in seconds, in reply order.
	latency []float64
	// lag is how late the generator sent each query, in seconds.
	lag  []float64
	wall float64 // seconds from the phase start to the last reply
	// start and end bound the phase on the wall clock.
	start, end time.Time
	stats      serve.Stats
	poolRuns   int64
}

// connResult is one connection's share of a phase.
type connResult struct {
	sent, answered int
	latency        []float64
	// done is when each latency sample's reply arrived.
	done       []time.Duration
	last       time.Duration
	mismatches []error
	err        error
}

// merge folds the connections' results into the phase result, counts
// every sent query as an attempted operation and every query that was
// shed, mismatched or never answered as a failed one.
func (p *phaseResult) merge(name string, ts []*tenant, outs []connResult, rep *report) {
	type sample struct {
		done    time.Duration
		latency float64
	}
	var all []sample
	for k, out := range outs {
		p.sent += out.sent
		p.answered += out.answered - len(out.mismatches)
		for i, l := range out.latency {
			all = append(all, sample{out.done[i], l})
		}
		if s := out.last.Seconds(); s > p.wall {
			p.wall = s
		}
		for _, m := range out.mismatches {
			rep.problem("%s tenant %s: %v", name, ts[k].shape.name, m)
		}
		if out.err != nil {
			rep.failures = appendCapped(rep.failures, fmt.Sprintf("%s tenant %s: %v", name, ts[k].shape.name, out.err))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	for _, x := range all {
		p.latency = append(p.latency, x.latency)
	}
	rep.ops(p.sent, p.sent-p.answered)
}

// readReply reads one reply and checks it against the expected answer
// for its sequence number. It returns the sequence number, whether the
// query was answered (not shed), and a mismatch; a transport or
// protocol error ends the connection.
func readReply(c *clientConn, want func(seq int32) (expected, bool)) (int32, bool, error, error) {
	msg, err := wire.Read(c.r)
	if err != nil {
		return 0, false, nil, err
	}
	seq := msg.Header.Batch
	w, ok := want(seq)
	if !ok {
		return seq, false, nil, fmt.Errorf("reply for unknown seq %d", seq)
	}
	switch msg.Header.Type {
	case wire.MsgPredict:
		if msg.Header.Class != w.class || math.Float64bits(msg.Confidence) != w.bits {
			return seq, true, fmt.Errorf("seq %d: reply class %d confidence %v, direct Confidence gives class %d confidence %v",
				seq, msg.Header.Class, msg.Confidence, w.class, math.Float64frombits(w.bits)), nil
		}
		return seq, true, nil, nil
	case wire.MsgBusy:
		return seq, false, nil, nil
	case wire.MsgError:
		return seq, false, nil, fmt.Errorf("server error: %s", msg.Text)
	}
	return seq, false, nil, fmt.Errorf("unexpected reply type %d", msg.Header.Type)
}

// readDeadline bounds how long a client waits for a reply, so a wedged
// server fails the run instead of hanging it.
const readDeadline = 30 * time.Second

// arrival is one scheduled phase A query.
type arrival struct {
	at     time.Duration
	tenant int
	idx    int
}

// schedule draws phase A's seeded Poisson arrivals: each picks a tenant
// at random and takes that tenant's next pool query.
func schedule(seed uint64, rate float64, dur time.Duration, ts []*tenant) []arrival {
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	next := make([]int, len(ts))
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		k := r.Intn(len(ts))
		out = append(out, arrival{at: at, tenant: k, idx: next[k] % len(ts[k].pool)})
		next[k]++
	}
}

// spinWindow is how early the generator stops sleeping before a send
// is due. Go's timers wake an idle process no sooner than about a
// millisecond, far coarser than the gaps between arrivals, so the
// generator sleeps in the kernel (whose timers overshoot by tens of
// microseconds) and yields the processor for the last stretch.
const spinWindow = 100 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only lengthens the spin below
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// phaseA is the open loop: this goroutine sends each scheduled query at
// its due time, whatever the replies are doing, and one goroutine per
// connection reads the replies. Latency runs from the due time, so a
// query the generator sent late is charged for the wait.
func phaseA(ts []*tenant, s *server, sched []arrival, tr *tracer, rep *report) phaseResult {
	res := phaseResult{lag: make([]float64, 0, len(sched))}
	expect := make([]int, len(ts))
	for _, a := range sched {
		expect[a.tenant]++
	}
	outs := make([]connResult, len(ts))
	res.start = time.Now()
	var wg sync.WaitGroup
	for k := range ts {
		outs[k].sent = expect[k]
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, out := s.conns[k], &outs[k]
			_ = c.nc.SetReadDeadline(time.Now().Add(readDeadline + time.Duration(len(sched))*time.Millisecond))
			want := func(seq int32) (expected, bool) {
				if seq < 0 || int(seq) >= len(sched) || sched[seq].tenant != k {
					return expected{}, false
				}
				return ts[k].want[sched[seq].idx], true
			}
			for got := 0; got < expect[k]; got++ {
				seq, answered, mismatch, err := readReply(c, want)
				if err != nil {
					out.err = err
					return
				}
				now := time.Since(res.start)
				out.last = now
				if mismatch != nil {
					out.mismatches = append(out.mismatches, mismatch)
				}
				if answered {
					out.answered++
					out.latency = append(out.latency, (now - sched[seq].at).Seconds())
					out.done = append(out.done, now)
					tr.record("serve.query", 0, k, res.start.Add(sched[seq].at), res.start.Add(now))
				}
			}
		}(k)
	}
	var sendErr error
	for i, a := range sched {
		waitUntil(res.start.Add(a.at))
		late := time.Since(res.start) - a.at
		if err := s.conns[a.tenant].send(wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: int32(i)}, Bipolar: ts[a.tenant].pool[a.idx]}); err != nil {
			sendErr = err
			break
		}
		res.lag = append(res.lag, late.Seconds())
	}
	if sendErr != nil {
		rep.failures = appendCapped(rep.failures, "phase A send: "+sendErr.Error())
		for _, c := range s.conns {
			_ = c.nc.SetReadDeadline(time.Now()) // unblock readers waiting for replies that will not come
		}
	}
	wg.Wait()
	res.end = time.Now()
	res.merge("phase A", ts, outs, rep)
	return res
}

// phaseB is the closed loop: each connection keeps window queries in
// flight, sending the next one as each reply arrives, until the phase
// ends; then it drains what is still in flight.
func phaseB(ts []*tenant, s *server, dur time.Duration, window int, rep *report) phaseResult {
	var res phaseResult
	outs := make([]connResult, len(ts))
	res.start = time.Now()
	deadline := res.start.Add(dur)
	var wg sync.WaitGroup
	for k := range ts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, out, t := s.conns[k], &outs[k], ts[k]
			_ = c.nc.SetReadDeadline(deadline.Add(readDeadline))
			sentAt := make(map[int32]time.Time, window)
			send := func() error {
				seq := int32(out.sent)
				sentAt[seq] = time.Now()
				out.sent++
				return c.send(wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: seq}, Bipolar: t.pool[int(seq)%len(t.pool)]})
			}
			want := func(seq int32) (expected, bool) {
				if _, ok := sentAt[seq]; !ok {
					return expected{}, false
				}
				return t.want[int(seq)%len(t.pool)], true
			}
			for len(sentAt) < window {
				if out.err = send(); out.err != nil {
					return
				}
			}
			for len(sentAt) > 0 {
				seq, answered, mismatch, err := readReply(c, want)
				if err != nil {
					out.err = err
					return
				}
				now := time.Now()
				out.last = now.Sub(res.start)
				if answered {
					out.answered++
					out.latency = append(out.latency, now.Sub(sentAt[seq]).Seconds())
					out.done = append(out.done, out.last)
				}
				if mismatch != nil {
					out.mismatches = append(out.mismatches, mismatch)
				}
				delete(sentAt, seq)
				if now.Before(deadline) {
					if out.err = send(); out.err != nil {
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	res.end = time.Now()
	res.merge("phase B", ts, outs, rep)
	return res
}

// checkStats compares the server's counters, read after its drain,
// with the queries the client sent, warm-ups included.
func checkStats(name string, st serve.Stats, sent int) error {
	if st.Replied != st.Admitted || st.Admitted+st.Rejected != uint64(sent) {
		return fmt.Errorf("%s: server admitted %d, rejected %d, replied %d for %d sent", name, st.Admitted, st.Rejected, st.Replied, sent)
	}
	return nil
}

// finish closes the phase's server and reads its counters.
func (p *phaseResult) finish(name string, s *server, rep *report) {
	p.stats = s.close()
	rep.check(checkStats(name, p.stats, p.sent+len(s.conns)))
	for n, v := range s.reg.Snapshot().Counters {
		if strings.HasPrefix(n, "pool_runs_total") {
			p.poolRuns += v
		}
	}
}

// writePasses is how often the write phase repeats its pass over each
// tenant's pool. One pass takes about 0.1 s, short enough for one burst
// of the shared host to set a whole run's feedback and sweep figures.
const writePasses = 60

// writePhase folds negative feedback for every pool query a tenant's
// model answers wrongly into a core.Residual, and every
// feedbackPerSweep events applies it to a copy of the model and
// publishes that copy: the serving plane's counterpart of the
// hierarchy's feedback and residual sweep. Each publish is checked
// against the benchmark's own running sum, and the residual must be
// empty afterwards, so a second sweep would move nothing. The pass
// runs passes times per tenant, each from the trained model, and the
// latencies come back per tenant.
func writePhase(ts []*tenant, registry *serve.Registry, cfg fedConfig, passes int, tr *tracer, rep *report) (fbLat, swLat [][]float64) {
	fbLat = make([][]float64, len(ts))
	swLat = make([][]float64, len(ts))
	for r := 0; r < passes; r++ {
		for k, t := range ts {
			writeTenant(t, k, registry, cfg, tr, rep, &fbLat[k], &swLat[k])
		}
	}
	return fbLat, swLat
}

// writeTenant is one write pass over tenant k's pool, from its trained
// model. It appends each feedback's and each publish's latency.
func writeTenant(t *tenant, k int, registry *serve.Registry, cfg fedConfig, tr *tracer, rep *report, fbLat, swLat *[]float64) {
	residual, err := core.NewResidual(t.shape.dim, t.spec.Classes)
	if !rep.op(err) {
		return
	}
	model := t.model
	own := newLabelSums(t.spec.Classes, t.shape.dim)
	for c := range own {
		for i, v := range model.Class(c).Ints() {
			own[c][i] = int64(v)
		}
	}
	pending := 0
	sweep := func() {
		id := tr.begin("serve.publish", 0, k)
		t0 := time.Now()
		next := model.Clone()
		err := residual.ApplyTo(next)
		if err == nil {
			err = registry.Set(t.shape.name, next)
		}
		*swLat = append(*swLat, time.Since(t0).Seconds())
		tr.end(id)
		pending = 0
		if !rep.op(err) {
			return
		}
		if !residual.IsZero() {
			rep.problem("tenant %s: residual not empty after a sweep", t.shape.name)
		}
		if err := own.equal(next); err != nil {
			rep.problem("tenant %s: published model is not the own running sum: %v", t.shape.name, err)
		}
		if got, ok := registry.Get(t.shape.name); !ok || got != serve.Model(next) {
			rep.problem("tenant %s: registry does not serve the published model", t.shape.name)
		}
		model = next
	}
	for i, q := range t.pool {
		class := int(t.want[i].class)
		if class == t.poolY[i] {
			continue
		}
		id := tr.begin("core.Residual.NegativeFeedback", 0, k)
		t0 := time.Now()
		residual.NegativeFeedback(class, q)
		*fbLat = append(*fbLat, time.Since(t0).Seconds())
		tr.end(id)
		rep.op(nil)
		own.add(class, q, -1)
		if pending++; pending == cfg.feedbackPerSweep {
			sweep()
		}
	}
	if pending > 0 {
		sweep()
	}
}

// frameBytes is the size of a tenant's query frame plus its reply.
func frameBytes(t *tenant) (int64, error) {
	var b bytes.Buffer
	if err := wire.Write(&b, wire.Message{Header: wire.Header{Type: wire.MsgQuery}, Bipolar: t.pool[0]}); err != nil {
		return 0, err
	}
	if err := wire.Write(&b, wire.Message{Header: wire.Header{Type: wire.MsgPredict}, Confidence: 1}); err != nil {
		return 0, err
	}
	return int64(b.Len()), nil
}

// codecSeconds encodes and decodes every phase A query frame and its
// reply in memory, returning the total time.
func codecSeconds(ts []*tenant, sched []arrival, tr *tracer) (float64, error) {
	var b bytes.Buffer
	total := 0.0
	for i, a := range sched {
		t := ts[a.tenant]
		id := tr.begin("wire.codec", 0, a.tenant)
		t0 := time.Now()
		err := wire.Write(&b, wire.Message{Header: wire.Header{Type: wire.MsgQuery, Batch: int32(i)}, Bipolar: t.pool[a.idx]})
		if err == nil {
			_, err = wire.Read(&b)
		}
		if err == nil {
			err = wire.Write(&b, wire.Message{Header: wire.Header{Type: wire.MsgPredict, Class: t.want[a.idx].class, Batch: int32(i)}, Confidence: math.Float64frombits(t.want[a.idx].bits)})
		}
		if err == nil {
			_, err = wire.Read(&b)
		}
		total += time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// runFed trains both tenants by federated rounds, serves them to two
// connections in an open-loop phase at a fixed rate and a closed-loop
// saturation phase, then folds feedback into the served models.
func runFed(cfg fedConfig, o runOpts) (*report, error) {
	rep := &report{}
	ts, setups, trains, moved, err := setUpFed(cfg, o, rep)
	if err != nil {
		return nil, err
	}
	accuracy := 0.0
	var frames int64
	for _, t := range ts {
		rep.check(checkMerge(t))
		t.want = make([]expected, len(t.pool))
		correct := 0
		for i, q := range t.pool {
			c, conf := t.model.Confidence(q)
			t.want[i] = expected{class: int32(c), bits: math.Float64bits(conf)}
			if c == t.poolY[i] {
				correct++
			}
		}
		accuracy += float64(correct) / float64(len(t.pool)) / float64(len(ts))
		held, err := heldOutAccuracy(t, o.seed)
		if err != nil {
			return nil, err
		}
		rep.check(checkFloor("tenant "+t.shape.name+" held-out", held, t.shape.floor))
	}

	srv, _, err := startServer(ts, cfg, o.trace)
	if err != nil {
		return nil, err
	}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// Phase A gets the larger share: its tail needs the samples.
	durA := o.seconds * 3 / 5
	sched := schedule(o.seed, cfg.rate, durA, ts)
	a := phaseA(ts, srv, sched, o.trace, rep)
	a.finish("phase A", srv, rep)
	for _, x := range sched {
		b, err := frameBytes(ts[x.tenant])
		if err != nil {
			return nil, err
		}
		frames += b
	}
	srv, registry, err := startServer(ts, cfg, o.trace)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	b := phaseB(ts, srv, o.seconds-durA, cfg.window, rep)
	runtime.ReadMemStats(&ms2)
	b.finish("phase B", srv, rep)
	runtime.GC() // phase B's garbage should not be collected inside the timed publishes
	fbLat, swLat := writePhase(ts, registry, cfg, o.reps(writePasses), o.trace, rep)
	bytesPerQuery := ratio(float64(frames), float64(len(sched)))

	if o.trace != nil {
		addBypassed(rep, "encoding.", "hierarchy.")
		searches := o.trace.durations("core.Confidence")
		rep.add("core.searches_per_query", "count", ratio(float64(len(searches)), float64(a.answered+b.answered)))
		rep.add("core.search_us", "us", mean(searches)*1e6)
		rep.add("parallel.runs_per_query", "count", ratio(float64(a.poolRuns+b.poolRuns), float64(a.answered+b.answered)))
		rep.add("serve.batch_size", "count", ratio(float64(a.stats.Admitted), float64(a.stats.Batches)))
		// Means, not medians: the two tenants' searches take about 40 and
		// 210 us, and each draws half the arrivals.
		service := mean(o.trace.durationsIn("core.Confidence", a.start, a.end))
		rep.add("serve.service_us", "us", service*1e6)
		rep.add("serve.overhead_ms", "ms", (mean(a.latency)-service)*1e3)
		rep.addMedian("serve.generator_lag_ms", "ms", a.lag)
		rep.add("wire.bytes_per_query", "B", bytesPerQuery)
		codec, err := codecSeconds(ts, sched, o.trace)
		if err != nil {
			return nil, err
		}
		rep.add("wire.codec_us", "us", ratio(codec*1e6, float64(len(sched))))
		rounds := float64(len(ts))
		rep.add("cluster.local_train_ms", "ms", o.trace.total("cluster.Worker.Train")*1e3/rounds)
		rep.add("cluster.push_ms", "ms", o.trace.total("cluster.Worker.Push")*1e3/rounds)
		rep.add("cluster.merge_ms", "ms", o.trace.total("cluster.Aggregator.Global")*1e3/rounds)
		rep.add("cluster.pull_ms", "ms", o.trace.total("cluster.Worker.Pull")*1e3/rounds)
		rep.add("cluster.bytes_per_round", "B", float64(moved)/rounds)
		rep.add("runtime.allocs_per_query", "count", ratio(float64(ms2.Mallocs-ms1.Mallocs), float64(b.answered)))
		rep.add("runtime.gc_cycles", "count", float64(ms2.NumGC-ms0.NumGC))
		rep.addMedian("trace.query_p50_ms", "ms", a.latency)
		return rep, nil
	}
	rep.addMedian("setup_s", "s", setups)
	rep.addMedian("train_s", "s", trains)
	rep.add("train_bytes", "B", float64(moved))
	// The median is phase A's, where the batch window shows. Its 99th
	// percentile is set by stalls of the shared host (5 to 12 ms across
	// five seeds), so the tail reported is phase B's, at saturation.
	rep.addMedian("query_p50_ms", "ms", a.latency)
	rep.addP99("query_p99_ms", "ms", b.latency)
	rep.add("queries_per_s", "1/s", ratio(float64(b.answered), b.wall))
	// Mean over tenants of each tenant's median: the two tenants' feedbacks
	// and publishes form latency clusters far apart, and the seed sets how
	// many of each the pool's wrong answers make.
	rep.addTenantMedians("feedback_p50_ms", "ms", fbLat)
	rep.addTenantMedians("sweep_p50_ms", "ms", swLat)
	rep.add("infer_bytes_per_query", "B", bytesPerQuery)
	rep.add("accuracy", "fraction", accuracy)
	return rep, nil
}
