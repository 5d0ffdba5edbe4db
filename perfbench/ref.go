package main

import (
	"math/rand/v2"
	"time"
)

// The reference kernel is a small fixed discrete-event simulation
// owned by the benchmark: refJobs jobs generated up front onto
// refClusters first-fit clusters, every arrival in a binary heap of
// pointers from the start, one heap object per event and a copied
// record per finished job. It has the engine's character (a large
// pointer heap, queue scans, steady allocation and GC) but none of its
// code, so a change to the program cannot move it; its duration tracks
// how fast the host runs such code at the moment.
const (
	refClusters = 64
	refNodes    = 32
	refJobs     = 100000
)

type refJob struct {
	cluster, size   int
	runtime         float64
	submit, started float64
	_               [4]int64 // pads a record to 80 bytes
}

type refEvent struct {
	t      float64
	job    *refJob
	arrive bool
}

type refHeap []*refEvent

func (h *refHeap) push(e *refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].t <= s[i].t {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *refHeap) pop() *refEvent {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s[r].t < s[l].t {
			l = r
		}
		if s[i].t <= s[l].t {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	*h = s
	return top
}

type refCluster struct {
	free  int
	queue []*refJob
}

// refKernel runs the reference simulation to its last job and returns
// its wall time in seconds.
func refKernel() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewPCG(0x5EED, 0xBE7C))
	clusters := make([]refCluster, refClusters)
	for i := range clusters {
		clusters[i].free = refNodes
	}
	// Offered load ~0.9: mean size 16.5 nodes × mean runtime 100 s
	// against refClusters × refNodes nodes.
	const iat = 16.5 * 100 / (0.9 * refNodes * refClusters)
	var h refHeap
	t := 0.0
	for i := 0; i < refJobs; i++ {
		t += r.ExpFloat64() * iat
		j := &refJob{cluster: r.IntN(refClusters), size: 1 + r.IntN(refNodes), runtime: r.ExpFloat64() * 100, submit: t}
		h.push(&refEvent{t: t, job: j, arrive: true})
	}
	var done []refJob
	for len(h) > 0 {
		e := h.pop()
		c := &clusters[e.job.cluster]
		if e.arrive {
			c.queue = append(c.queue, e.job)
		} else {
			c.free += e.job.size
			done = append(done, *e.job)
		}
		// First fit: every queued job that fits starts.
		kept := c.queue[:0]
		for _, j := range c.queue {
			if j.size <= c.free {
				c.free -= j.size
				j.started = e.t
				h.push(&refEvent{t: e.t + j.runtime, job: j})
				continue
			}
			kept = append(kept, j)
		}
		c.queue = kept
	}
	if len(done) != refJobs {
		panic("reference kernel lost jobs")
	}
	return time.Since(t0).Seconds()
}
