package sched

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"redreq/internal/des"
)

// scanJob is one job of the linear-scan EASY reference. Times are in
// seconds; cancel is +Inf for a job that is never canceled.
type scanJob struct {
	arrival, cancel   float64
	nodes             int
	runtime, estimate float64
}

// scanStats counts what a reference run exercised.
type scanStats struct {
	backfills int // starts made by the backfill scan
	ties      int // scanned candidates with now+estimate == shadow
}

// linearScanEASY is the documented EASY rule written as plain linear
// scans over a slice queue: no block bounds, holes or incremental
// state. At every instant with an arrival, an effective cancellation
// or a completion it makes one pass: start queued jobs in order while
// the head fits; reserve the blocked head at its shadow, the earliest
// requested end of running jobs that frees enough nodes; then scan the
// whole rest of the queue in order, starting each job that fits the
// free nodes now and, when its requested window crosses the shadow,
// also fits the nodes left over at the shadow. It returns every job's
// start time (NaN for jobs canceled while queued). Jobs must be in
// arrival order.
func linearScanEASY(jobs []scanJob, total int) ([]float64, scanStats) {
	starts := make([]float64, len(jobs))
	for i := range starts {
		starts[i] = math.NaN()
	}
	type running struct {
		end, reqEnd float64
		nodes       int
	}
	var (
		run   []running
		queue []int
		st    scanStats
	)
	cancels := make([]int, 0, len(jobs))
	for i, j := range jobs {
		if !math.IsInf(j.cancel, 1) {
			cancels = append(cancels, i)
		}
	}
	sort.SliceStable(cancels, func(a, b int) bool { return jobs[cancels[a]].cancel < jobs[cancels[b]].cancel })
	free, next, nextCancel := total, 0, 0
	for {
		now := math.Inf(1)
		if next < len(jobs) {
			now = jobs[next].arrival
		}
		if nextCancel < len(cancels) {
			now = min(now, jobs[cancels[nextCancel]].cancel)
		}
		for _, r := range run {
			now = min(now, r.end)
		}
		if math.IsInf(now, 1) {
			return starts, st
		}
		kick := false
		w := 0
		for _, r := range run {
			if r.end == now {
				free += r.nodes
				kick = true
			} else {
				run[w] = r
				w++
			}
		}
		run = run[:w]
		for ; next < len(jobs) && jobs[next].arrival == now; next++ {
			queue = append(queue, next)
			kick = true
		}
		for ; nextCancel < len(cancels) && jobs[cancels[nextCancel]].cancel == now; nextCancel++ {
			if k := slices.Index(queue, cancels[nextCancel]); k >= 0 {
				queue = slices.Delete(queue, k, k+1)
				kick = true
			}
		}
		if !kick {
			continue
		}

		start := func(i int) {
			j := jobs[i]
			starts[i] = now
			free -= j.nodes
			run = append(run, running{now + j.runtime, now + j.estimate, j.nodes})
		}
		for len(queue) > 0 && jobs[queue[0]].nodes <= free {
			start(queue[0])
			queue = queue[1:]
		}
		if len(queue) == 0 || free == 0 {
			continue
		}
		head := jobs[queue[0]]
		ends := make([]running, len(run))
		copy(ends, run)
		sort.Slice(ends, func(a, b int) bool { return ends[a].reqEnd < ends[b].reqEnd })
		shadow, avail := math.Inf(1), free
		for _, e := range ends {
			if avail += e.nodes; avail >= head.nodes {
				shadow = e.reqEnd
				break
			}
		}
		shadowFree := free - head.nodes
		for _, e := range ends {
			if e.reqEnd <= shadow {
				shadowFree += e.nodes
			}
		}
		rest := queue[:1]
		for _, i := range queue[1:] {
			j := jobs[i]
			if now+j.estimate == shadow {
				st.ties++
			}
			crosses := now+j.estimate > shadow
			if j.nodes <= free && (!crosses || j.nodes <= shadowFree) {
				start(i)
				st.backfills++
				if crosses {
					shadowFree -= j.nodes
				}
			} else {
				rest = append(rest, i)
			}
		}
		queue = rest
	}
}

// deepQueueJobs draws an overloaded stream for a 32-node cluster on a
// 0.1 s time grid: arrivals at k*0.1, estimates and runtimes in whole
// tenths, mostly narrow jobs with some wide ones, and two in five jobs
// canceled a few seconds after arrival. The queue grows hundreds deep
// and the grid makes now+estimate land on a running job's requested
// end, equal or off by one rounding step.
func deepQueueJobs(rng *rand.Rand, n int) []scanJob {
	jobs := make([]scanJob, n)
	k := 0
	for i := range jobs {
		k += rng.IntN(4)
		est := 1 + rng.IntN(60)
		rt := est
		if rng.IntN(3) == 0 {
			rt = 1 + rng.IntN(est)
		}
		nodes := 1 + rng.IntN(4)
		if rng.IntN(5) < 2 {
			nodes = 1 + rng.IntN(32)
		}
		arrival := float64(k) * 0.1
		cancel := math.Inf(1)
		if rng.IntN(5) < 2 {
			cancel = arrival + float64(1+rng.IntN(400))*0.1
		}
		jobs[i] = scanJob{arrival, cancel, nodes, float64(rt) * 0.1, float64(est) * 0.1}
	}
	return jobs
}

// TestEASYMatchesLinearScanReference requires the EASY pass, block
// pruning included, to start every request at exactly the time the
// linear-scan reference does. The workloads queue several blocks deep,
// cancel enough requests for the queue to be compacted mid-run, and
// put times on a decimal grid so now+estimate == shadow ties occur
// under rounding.
func TestEASYMatchesLinearScanReference(t *testing.T) {
	const nodes = 32
	var maxQueue, compactions, backfills, ties int
	for trial := 0; trial < 12; trial++ {
		jobs := deepQueueJobs(rand.New(rand.NewPCG(uint64(trial), 64)), 1500)
		want, st := linearScanEASY(jobs, nodes)
		backfills += st.backfills
		ties += st.ties

		sim := des.New()
		c := NewCluster(sim, "scan", 0, Config{Nodes: nodes, Alg: EASY})
		reqs := make([]*Request, len(jobs))
		for i, j := range jobs {
			r := testReq(int64(i), j.nodes, j.runtime, j.estimate)
			reqs[i] = r
			submitAt(sim, c, j.arrival, r)
			if !math.IsInf(j.cancel, 1) {
				sim.Schedule(j.cancel, func() {
					n := len(c.queue)
					c.Cancel(r)
					if len(c.queue) < n {
						compactions++
					}
					maxQueue = max(maxQueue, n)
					if err := c.checkInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		sim.Run()
		for i, r := range reqs {
			if r.Start != want[i] && !(math.IsNaN(r.Start) && math.IsNaN(want[i])) {
				t.Fatalf("trial %d: job %d (%+v) started at %v, reference %v", trial, i, jobs[i], r.Start, want[i])
			}
		}
	}
	t.Logf("max queue %d slots, %d compactions, %d backfills, %d shadow ties", maxQueue, compactions, backfills, ties)
	if maxQueue < 4*queueBlock || compactions == 0 || backfills == 0 || ties == 0 {
		t.Fatalf("workload too tame: max queue %d slots, %d compactions, %d backfills, %d shadow ties",
			maxQueue, compactions, backfills, ties)
	}
}

// BenchmarkEASYBackfillDeepQueue times one blocked EASY pass over a
// full 32-node cluster: a 30-node job ends in 10 s, the 32-node head
// waits for it, and 1000 requests of 1-32 nodes and 1 min to 10 h
// estimates queue behind. Every candidate crosses the shadow with no
// nodes to spare there, so the pass starts nothing and repeats
// unchanged; ns/op is the cost of the backfill scan. It is the layer
// figure behind sim-grid's wall_s, whose deep redundant queues make
// this the dominant pass.
func BenchmarkEASYBackfillDeepQueue(b *testing.B) {
	sim := des.New()
	c := NewCluster(sim, "deep", 0, Config{Nodes: 32, Alg: EASY})
	c.Submit(testReq(0, 30, 10, 10))
	c.Submit(testReq(1, 32, 60, 60))
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		est := 60 * math.Pow(600, rng.Float64())
		c.Submit(testReq(int64(i+2), 1+rng.IntN(32), est, est))
	}
	sim.RunUntil(0)
	if c.RunningLen() != 1 || c.QueueLen() != 1001 {
		b.Fatalf("setup: %d running, %d queued", c.RunningLen(), c.QueueLen())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.pass()
	}
	b.StopTimer()
	if c.QueueLen() != 1001 {
		b.Fatalf("blocked pass started requests: %d queued", c.QueueLen())
	}
}
