package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redreq/internal/middleware"
	"redreq/internal/obs"
	"redreq/internal/pbsd"
)

// gramSpec is one real-stack workload: the stack's configuration, the
// shape of a logical request, and the rate schedule.
type gramSpec struct {
	name    string
	r       int  // copies per logical request
	batch   bool // one SubmitBatch and one CancelBatch per logical request
	preload int  // jobs queued before the run; Execute is off, so they stay
	// backend configures the daemon. Its GroupCommit picks the journal
	// mode, which the run's daemon uses only when runJournal is set;
	// the isolated daemon replay always journals.
	backend    pbsd.Config
	runJournal bool
	// durable and security select the service's GRAM-like costs.
	durable, security bool
	// statusPerLogical is the Status polls sent per logical request,
	// as a Poisson stream beside the logical requests.
	statusPerLogical float64
	// nominal is the latency step's rate (logical requests/s); each
	// round runs nominalWindows windows of nominalN requests, together
	// enough for minTail samples beyond the pooled p99.
	nominal        float64
	nominalN       int
	nominalWindows int
	// ladder lists the capacity search's rates in logical requests/s,
	// ascending.
	ladder []float64
	// overload is the fixed collapse-regime rate in logical
	// requests/s, set from the median ladder knee measured when the
	// benchmark was defined and never re-derived per run (see README).
	overload float64
	// codecOps are the envelope kinds the workload sends.
	codecOps []string
}

// Capacity limits: a ladder step counts as sustained when its logical
// requests meet all of these. Dropped requests count as failed.
const (
	capP99      = 0.25 // seconds
	capFailFrac = 0.01
	capLagP99   = 0.02 // seconds of generator lateness
)

// maxInflight bounds the logical requests the generator keeps
// outstanding; arrivals beyond it are dropped and counted.
const maxInflight = 64

var gt4 = gramSpec{
	name:    "gram-gt4",
	r:       2,
	preload: 8,
	backend: pbsd.Config{
		Nodes:         16,
		FullScanCycle: true,
		AdmitBudget:   250 * time.Millisecond,
	},
	runJournal:     true,
	durable:        true,
	security:       true,
	nominal:        100,
	nominalN:       200,
	nominalWindows: 2,
	ladder:         []float64{100, 125, 150, 175, 200, 225, 250},
	overload:       300,
	codecOps:       []string{"submit", "cancel"},
}

var batch = gramSpec{
	name:    "gram-batch",
	r:       4,
	batch:   true,
	preload: 2000,
	backend: pbsd.Config{
		Nodes:       16,
		GroupCommit: true,
		// Preload plus 128 copies: BUSY shedding starts once more
		// than 32 logical requests hold their copies at once.
		MaxQueue: 2128,
	},
	statusPerLogical: 0.25,
	nominal:          500,
	nominalN:         500,
	nominalWindows:   3,
	ladder:           []float64{1000, 1150, 1300, 1500, 1750, 2000, 2300, 2650, 3050},
	overload:         2600,
	codecOps:         []string{"submit_batch4", "cancel_batch4", "status"},
}

func runGramGT4(e env) (*outcome, error)   { return runGram(&gt4, e) }
func runGramBatch(e env) (*outcome, error) { return runGram(&batch, e) }

// stack is one running service + daemon + client, all in process.
type stack struct {
	spec       *gramSpec
	backend    *pbsd.Server
	svc        *middleware.Service
	srv        *http.Server
	served     chan struct{}
	transport  *http.Transport
	client     *middleware.Client
	journalDir string
	stateDir   string
	preloaded  []int64
}

func startStack(spec *gramSpec, dir string, tr *tracer, otr *obs.Trace) (*stack, error) {
	s := &stack{spec: spec}
	var err error
	if s.journalDir, err = os.MkdirTemp(dir, "journal-"); err != nil {
		return nil, err
	}
	if s.stateDir, err = os.MkdirTemp(dir, "state-"); err != nil {
		return nil, err
	}
	cfg := spec.backend
	cfg.Trace = otr
	if spec.runJournal {
		cfg.JournalDir = s.journalDir
	} else {
		cfg.GroupCommit = false
	}
	if s.backend, err = pbsd.New(cfg); err != nil {
		return nil, err
	}
	for i := 0; i < spec.preload; i++ {
		id, err := s.backend.Submit("preload", 1, time.Hour)
		if err != nil {
			s.backend.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		s.preloaded = append(s.preloaded, id)
	}
	svcCfg := middleware.ServiceConfig{
		Durable: spec.durable, Security: spec.security, Backend: s.backend, Trace: otr,
	}
	if spec.durable {
		svcCfg.StateDir = s.stateDir
	}
	if s.svc, err = middleware.NewService(svcCfg); err != nil {
		s.backend.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.backend.Close()
		return nil, err
	}
	handler := s.svc.Handler()
	if tr != nil {
		handler = spanHandler{tr: tr, next: handler}
	}
	s.srv = &http.Server{Handler: handler}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	// Connections are capped at the core count: PoolSize only sizes the
	// idle pool, MaxConnsPerHost bounds how many exist.
	conns := runtime.NumCPU()
	s.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, MaxIdleConns: conns}
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = spanTransport{base: s.transport}
	}
	s.client = middleware.NewClientOptions("http://"+ln.Addr().String(), spec.name, middleware.ClientOptions{
		Timeout: 30 * time.Second, Transport: rt, Trace: otr,
	})
	if err := s.client.Warm(context.Background(), conns); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the HTTP server and the daemon; the directories stay
// for the recovery check.
func (s *stack) close() error {
	err := s.srv.Close()
	<-s.served
	s.transport.CloseIdleConnections()
	s.svc.Close()
	if cerr := s.backend.Close(); err == nil {
		err = cerr
	}
	return err
}

// accounts tallies operations (one copy's submit or cancel, or one
// Status poll) and the lifecycle of every acknowledged copy.
type accounts struct {
	attempted, shed, failed, pairs atomic.Int64
	mu                             sync.Mutex
	acked                          map[int64]bool // job ID -> cancelled
}

func (a *accounts) op(err error) {
	a.attempted.Add(1)
	switch {
	case err == nil:
	case errors.Is(err, middleware.ErrBusy), errors.Is(err, middleware.ErrLate):
		a.shed.Add(1)
	default:
		a.failed.Add(1)
	}
}

func (a *accounts) ack(id int64) {
	a.mu.Lock()
	a.acked[id] = false
	a.mu.Unlock()
}

func (a *accounts) cancelled(id int64) {
	a.mu.Lock()
	a.acked[id] = true
	a.mu.Unlock()
	a.pairs.Add(1)
}

type tally struct{ attempted, shed, failed, pairs int64 }

func (a *accounts) snapshot() tally {
	return tally{a.attempted.Load(), a.shed.Load(), a.failed.Load(), a.pairs.Load()}
}

func (t tally) minus(u tally) tally {
	return tally{t.attempted - u.attempted, t.shed - u.shed, t.failed - u.failed, t.pairs - u.pairs}
}

// logical sends one redundant request: r copies, each submitted and
// then cancelled, so latency covers every copy's submit and cancel.
func (s *stack) logical(ctx context.Context, tr *tracer, acct *accounts) error {
	root := tr.begin("gen.request", spanRef{})
	defer tr.end(root)
	if s.spec.batch {
		return s.logicalBatch(ctx, tr, root, acct)
	}
	errs := make([]error, s.spec.r)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ref := tr.begin("client.submit", root)
			id, err := s.client.SubmitContext(withSpan(ctx, ref), "bench", 1, time.Hour)
			tr.end(ref)
			acct.op(err)
			if err != nil {
				errs[c] = err
				return
			}
			acct.ack(id)
			ref = tr.begin("client.cancel", root)
			err = s.client.CancelContext(withSpan(ctx, ref), id)
			tr.end(ref)
			acct.op(err)
			if err != nil {
				errs[c] = err
				return
			}
			acct.cancelled(id)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *stack) logicalBatch(ctx context.Context, tr *tracer, root spanRef, acct *accounts) error {
	jobs := make([]middleware.BatchJob, s.spec.r)
	for i := range jobs {
		jobs[i] = middleware.BatchJob{Name: "bench", Nodes: 1, Walltime: time.Hour}
	}
	ref := tr.begin("client.batch_submit", root)
	subs, err := s.client.SubmitBatchContext(withSpan(ctx, ref), jobs)
	tr.end(ref)
	if err != nil {
		for range jobs {
			acct.op(err)
		}
		return err
	}
	var (
		ids  []int64
		errs []error
	)
	for _, r := range subs {
		e := r.Err()
		acct.op(e)
		if e != nil {
			errs = append(errs, e)
			continue
		}
		acct.ack(r.JobID)
		ids = append(ids, r.JobID)
	}
	if len(ids) == 0 {
		return errors.Join(errs...)
	}
	ref = tr.begin("client.batch_cancel", root)
	cans, err := s.client.CancelBatchContext(withSpan(ctx, ref), ids)
	tr.end(ref)
	if err != nil {
		for range ids {
			acct.op(err)
		}
		return err
	}
	for i, r := range cans {
		e := r.Err()
		acct.op(e)
		if e != nil {
			errs = append(errs, e)
			continue
		}
		acct.cancelled(ids[i])
	}
	return errors.Join(errs...)
}

func (s *stack) status(ctx context.Context, tr *tracer, acct *accounts) error {
	ref := tr.begin("client.status", spanRef{})
	_, _, _, err := s.client.StatContext(withSpan(ctx, ref))
	tr.end(ref)
	acct.op(err)
	return err
}

// Rounds of nominal windows plus a pass over the capacity ladder, and
// windows of the overload step.
const ladderPasses, overloadWindows = 3, 3

// phase is one rate step's outcome.
type phase struct {
	rate    float64 // logical requests/s
	gen     *phaseResult
	logical []float64 // latency of each logical request (+Inf if refused)
	ops     tally
	dropOps int64 // operations the dropped requests would have made
	lag99   float64
}

// sustained reports whether the window met every capacity limit.
func (p *phase) sustained() bool {
	return quantile(p.logical, 0.99) <= capP99 && p.failFrac() <= capFailFrac && p.lag99 <= capLagP99
}

func (p *phase) failFrac() float64 {
	att := p.ops.attempted + p.dropOps
	if att == 0 {
		return 0
	}
	return float64(p.ops.shed+p.ops.failed+p.dropOps) / float64(att)
}

// runStep drives one phase: logical arrivals plus, where the workload
// polls, a Poisson Status stream at statusPerLogical times the rate.
func (s *stack) runStep(rng *rand.Rand, rate float64, n int, window time.Duration, tr *tracer, acct *accounts) *phase {
	var logical []time.Duration
	if n > 0 {
		logical = poissonSchedule(rng, rate, n)
		window = logical[len(logical)-1]
	} else {
		logical = poissonWindow(rng, rate, window)
	}
	var polls []time.Duration
	if f := s.spec.statusPerLogical; f > 0 {
		polls = poissonWindow(rng, rate*f, window)
	}
	type arrival struct {
		at   time.Duration
		poll bool
	}
	all := make([]arrival, 0, len(logical)+len(polls))
	for _, at := range logical {
		all = append(all, arrival{at, false})
	}
	for _, at := range polls {
		all = append(all, arrival{at, true})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	sched := make([]time.Duration, len(all))
	for i, a := range all {
		sched[i] = a.at
	}
	before := acct.snapshot()
	g := runPhase(context.Background(), wallClock{}, sched, maxInflight, func(ctx context.Context, i int) error {
		if all[i].poll {
			return s.status(ctx, tr, acct)
		}
		return s.logical(ctx, tr, acct)
	})
	p := &phase{rate: rate, gen: g, ops: acct.snapshot().minus(before), lag99: quantile(g.Lag, 0.99)}
	for i, a := range all {
		if !a.poll {
			p.logical = append(p.logical, g.Latency[i])
		}
	}
	for _, i := range g.DroppedAt {
		if all[i].poll {
			p.dropOps++
		} else {
			p.dropOps += int64(2 * s.spec.r)
		}
	}
	return p
}

func runGram(spec *gramSpec, e env) (*outcome, error) {
	o := newOutcome()
	var otr *obs.Trace
	if e.tr != nil {
		otr = obs.New()
	}
	st, setupS, err := medianSetup(setupReps, func() (*stack, error) {
		return startStack(spec, e.tmp, e.tr, otr)
	}, func(s *stack) {
		// A discarded set-up: its directories go with the pass's
		// scratch directory, and a close error cannot affect the run.
		_ = s.close()
	})
	if err != nil {
		return nil, fmt.Errorf("start stack: %w", err)
	}
	acct := &accounts{acked: map[int64]bool{}}
	rng := rand.New(rand.NewSource(int64(e.seed)))

	// Each figure is a median over windows spread across the run, so a
	// host stall that spoils a few windows does not move it. Each of
	// ladderPasses rounds runs nominalWindows latency windows and one
	// pass up the capacity ladder; the overload windows come last. The
	// nominal windows run fixed request counts; the ladder gets four
	// fifths of the remaining budget and the overload step the rest.
	nominalSecs := float64(ladderPasses*spec.nominalWindows*spec.nominalN) / spec.nominal
	rest := math.Max(e.seconds-nominalSecs, 2)
	rungWin := time.Duration(0.8 * rest / float64(len(spec.ladder)*ladderPasses) * float64(time.Second))
	overWin := time.Duration(0.2 * rest / overloadWindows * float64(time.Second))

	var (
		phases                          []*phase
		p50s, nominal, goodputs, passes []float64
	)
	a := sample()
	for pass := 0; pass < ladderPasses; pass++ {
		for w := 0; w < spec.nominalWindows; w++ {
			p := st.runStep(rng, spec.nominal, spec.nominalN, 0, e.tr, acct)
			phases = append(phases, p)
			p50s = append(p50s, quantile(p.logical, 0.5))
			nominal = append(nominal, p.logical...)
		}
		// A pass's capacity is its highest rung below the first one that
		// fails. Every pass runs every rung, so the schedule (and wall_s)
		// does not depend on where the knee falls.
		capacity, failed := 0.0, false
		for _, rate := range spec.ladder {
			p := st.runStep(rng, rate, 0, rungWin, e.tr, acct)
			phases = append(phases, p)
			if failed = failed || !p.sustained(); !failed {
				capacity = rate * float64(spec.r)
			}
		}
		passes = append(passes, capacity)
	}
	for w := 0; w < overloadWindows; w++ {
		p := st.runStep(rng, spec.overload, 0, overWin, e.tr, acct)
		phases = append(phases, p)
		goodputs = append(goodputs, float64(p.ops.pairs)/p.gen.Elapsed.Seconds())
	}
	b := sample()
	for _, p := range phases {
		fmt.Fprintf(os.Stderr, "%s: %6.0f logical/s: sent %5d dropped %4d p50 %.4fs p99 %.4fs fail %.4f lag99 %.4fs pairs %d in %.2fs\n",
			spec.name, p.rate, p.gen.Sent, p.gen.Dropped, quantile(p.logical, 0.5), quantile(p.logical, 0.99),
			p.failFrac(), p.lag99, p.ops.pairs, p.gen.Elapsed.Seconds())
	}

	p99, err := percentile(nominal, 0.99)
	if err != nil {
		return nil, fmt.Errorf("nominal latency: %w", err)
	}

	// Checks, outside the timed region: no leaked copies, every
	// acknowledged copy cancelled, one state file per persisted
	// transaction, and a restarted daemon recovers exactly the preload.
	queued, _, _ := st.backend.Stat()
	o.check(queued == spec.preload, "queue holds %d jobs after the run, preload was %d", queued, spec.preload)
	uncancelled := 0
	for _, done := range acct.acked {
		if !done {
			uncancelled++
		}
	}
	o.check(uncancelled == 0, "%d acknowledged copies were never cancelled", uncancelled)
	tx := st.svc.Transactions()
	stateFiles := 0
	if spec.durable {
		ents, err := os.ReadDir(st.stateDir)
		if err != nil {
			return nil, err
		}
		for _, ent := range ents {
			if strings.HasSuffix(ent.Name(), ".state") {
				stateFiles++
			}
		}
		o.check(int64(stateFiles) == tx, "%d state files for %d persisted transactions", stateFiles, tx)
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	if spec.runJournal {
		re, err := pbsd.New(pbsd.Config{Nodes: spec.backend.Nodes, JournalDir: st.journalDir})
		if err != nil {
			return nil, fmt.Errorf("reopen journal: %w", err)
		}
		checkRecovered(o, "run journal", re.Pending(), st.preloaded)
		re.Close()
	}
	if err := pbsdProbe(o, spec, e.tmp); err != nil {
		return nil, err
	}

	var (
		total   tally
		dropOps int64
		dropped int
		inMax   int
		lags    []float64
	)
	for _, p := range phases {
		total.attempted += p.ops.attempted
		total.shed += p.ops.shed
		total.failed += p.ops.failed
		total.pairs += p.ops.pairs
		dropOps += p.dropOps
		dropped += p.gen.Dropped
		inMax = max(inMax, p.gen.InflightMax)
		lags = append(lags, p.gen.Lag...)
	}
	o.attempted = total.attempted + dropOps
	o.failed = total.failed

	o.plain["setup_s"] = setupS
	o.plain["wall_s"] = b.wall.Sub(a.wall).Seconds()
	o.plain["p50_s"] = median(p50s)
	o.plain["goodput_per_s"] = median(goodputs)
	o.plain["request.p99_s"] = p99
	o.plain["peak_rss_mb"] = peakRSSMB()
	o.plain["capacity_pairs_per_s"] = median(passes)
	o.plain["overload_goodput_pairs_per_s"] = median(goodputs)
	o.plain["fail_frac"] = float64(total.shed+total.failed+dropOps) / float64(total.attempted+dropOps)
	o.plain["gen.lag_p99_s"] = quantile(lags, 0.99)
	o.plain["gen.inflight_max"] = float64(inMax)
	o.plain["gen.dropped"] = float64(dropped)
	o.plain["pbsd.queue_leak"] = float64(queued - spec.preload)
	if total.pairs > 0 {
		o.plain["go.allocs_per_pair"] = float64(b.mem.Mallocs-a.mem.Mallocs) / float64(total.pairs)
		o.plain["go.alloc_kb_per_pair"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / 1024 / float64(total.pairs)
		if spec.durable {
			o.plain["service.state_files_per_pair"] = float64(stateFiles) / float64(total.pairs)
		}
	}
	runtimeMetrics(o, a, b)

	if e.tr != nil {
		gramTraceMetrics(o, e.tr, otr.Snapshot())
		codecProbe(o, spec.codecOps)
	}
	return o, nil
}

// gramTraceMetrics reads the client, handler and transport split from
// the spans and the stack's own counters from its trace.
func gramTraceMetrics(o *outcome, tr *tracer, snap obs.Snapshot) {
	for _, op := range []string{"submit", "cancel", "batch_submit", "batch_cancel", "status"} {
		d := tr.durations("client." + op)
		if len(d) == 0 {
			continue
		}
		o.traced["client."+op+"_s.p50"] = quantile(d, 0.5)
		o.traced["client."+op+"_s.p99"] = quantile(d, 0.99)
	}
	h := tr.durations("service.handler")
	o.traced["service.handler_s.p50"] = quantile(h, 0.5)
	o.traced["service.handler_s.p99"] = quantile(h, 0.99)
	var net []float64
	for _, op := range []string{"submit", "cancel", "batch_submit", "batch_cancel", "status"} {
		net = append(net, tr.childOverhead("client."+op)...)
	}
	o.traced["net.overhead_s.p50"] = quantile(net, 0.5)
	for name, c := range map[string]string{
		"client.retries": "gram.client.retries", "client.timeouts": "gram.client.timeouts",
		"client.busy": "gram.client.busy", "service.shed": "gram.shed", "service.late": "gram.late",
		"service.idem_hits": "gram.idem_hits", "service.errors": "gram.errors",
	} {
		o.traced[name] = float64(snap.Counter(c))
	}
}

// codecEnvelope builds the envelope a client sends for op, shaped as
// middleware.Client builds it.
func codecEnvelope(op string) *middleware.Envelope {
	job := middleware.SubmitJob{Name: "bench", Nodes: 1, Walltime: 3600, Arguments: []string{"--input", "data.bin"}}
	env := &middleware.Envelope{Header: middleware.Header{MessageID: "gram-batch-5f3a9c2e1b7d4a60-1", Sender: "gram-batch"}}
	switch op {
	case "submit":
		env.Body.Submit = &job
	case "cancel":
		env.Body.Cancel = &middleware.CancelJob{JobID: 123456}
	case "submit_batch4":
		b := &middleware.SubmitBatch{}
		for i := 0; i < 4; i++ {
			j := job
			j.OpID = fmt.Sprintf("gram-batch-5f3a9c2e1b7d4a60-%d", i+2)
			b.Jobs = append(b.Jobs, j)
		}
		env.Body.SubmitBatch = b
	case "cancel_batch4":
		b := &middleware.CancelBatch{}
		for i := 0; i < 4; i++ {
			b.Ops = append(b.Ops, middleware.CancelJob{OpID: fmt.Sprintf("gram-batch-5f3a9c2e1b7d4a60-%d", i+6), JobID: int64(123456 + i)})
		}
		env.Body.CancelBatch = b
	case "status":
		env.Body.Status = &middleware.JobStatus{}
	}
	return env
}

// codecProbe replays the workload's envelopes through Marshal and
// Unmarshal in isolation: time per call and allocations per round trip.
func codecProbe(o *outcome, ops []string) {
	const n = 2000
	for _, op := range ops {
		env := codecEnvelope(op)
		raw, err := middleware.Marshal(env)
		if err != nil {
			o.check(false, "codec %s: %v", op, err)
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			middleware.Marshal(env)
		}
		t1 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := middleware.Unmarshal(bytes.NewReader(raw)); err != nil {
				o.check(false, "codec %s: %v", op, err)
				break
			}
		}
		t2 := time.Now()
		runtime.ReadMemStats(&m1)
		o.traced["codec.marshal_us."+op] = t1.Sub(t0).Seconds() / n * 1e6
		o.traced["codec.unmarshal_us."+op] = t2.Sub(t1).Seconds() / n * 1e6
		o.traced["codec.allocs."+op] = float64(m1.Mallocs-m0.Mallocs) / n
	}
}

// checkRecovered checks that a reopened daemon holds exactly the
// preloaded jobs, in order.
func checkRecovered(o *outcome, what string, pending []pbsd.Job, preloaded []int64) {
	o.check(len(pending) == len(preloaded), "%s recovered %d jobs, preload was %d", what, len(pending), len(preloaded))
	for i := range pending {
		if i < len(preloaded) && pending[i].ID != preloaded[i] {
			o.check(false, "%s: recovered job %d is %d, preloaded %d", what, i, pending[i].ID, preloaded[i])
			return
		}
	}
}

// pbsdProbe replays the workload's daemon operations — submit then
// delete, at its queue depth and journal mode — straight into a fresh
// journaled pbsd.Server, reads the scheduling work from Counters
// deltas, then reopens the journal and checks that recovery restores
// exactly the preload.
func pbsdProbe(o *outcome, spec *gramSpec, dir string) error {
	const n = 200
	jdir, err := os.MkdirTemp(dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	cfg := spec.backend
	cfg.JournalDir = jdir
	srv, err := pbsd.New(cfg)
	if err != nil {
		return err
	}
	var preloaded []int64
	for i := 0; i < spec.preload; i++ {
		id, err := srv.Submit("preload", 1, time.Hour)
		if err != nil {
			srv.Close()
			return fmt.Errorf("probe preload: %w", err)
		}
		preloaded = append(preloaded, id)
	}
	c0, s0 := srv.Counters()
	var sub, del time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := srv.Submit("probe", 1, time.Hour)
		t1 := time.Now()
		if err != nil {
			srv.Close()
			return fmt.Errorf("probe submit: %w", err)
		}
		if err := srv.Delete(id); err != nil {
			srv.Close()
			return fmt.Errorf("probe delete: %w", err)
		}
		sub += t1.Sub(t0)
		del += time.Since(t1)
	}
	c1, s1 := srv.Counters()
	if err := srv.Close(); err != nil {
		return err
	}
	o.plain["pbsd.cycles_per_op"] = float64(c1-c0) / (2 * n)
	o.plain["pbsd.scanned_per_op"] = float64(s1-s0) / (2 * n)
	o.plain["pbsd.submit_us"] = sub.Seconds() / n * 1e6
	o.plain["pbsd.delete_us"] = del.Seconds() / n * 1e6

	t0 := time.Now()
	re, err := pbsd.New(pbsd.Config{Nodes: cfg.Nodes, JournalDir: jdir})
	if err != nil {
		return fmt.Errorf("reopen probe journal: %w", err)
	}
	o.plain["journal.recover_s"] = time.Since(t0).Seconds()
	pending := re.Pending()
	o.plain["journal.recovered"] = float64(len(pending))
	checkRecovered(o, "replay journal", pending, preloaded)
	return re.Close()
}
