package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own open-loop generator. Requests follow a seeded
// Poisson schedule whatever the system is doing, so a slow stack sees
// a growing backlog instead of a politely reduced offered rate. Each
// request is timed from its *scheduled* send, so a stall is charged to
// every request it delays, and the generator reports how late it ran
// itself: a lagging generator means the machine, not the system under
// test, limited the offered rate. Requests past the in-flight bound
// are dropped and counted, never queued (queueing would close the
// loop).

// poissonSchedule returns n arrival offsets of a Poisson process at
// rate per second, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// poissonWindow returns the arrival offsets of a Poisson process at
// rate per second that fall inside [0, window).
func poissonWindow(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, at)
	}
}

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// phaseResult is the generator's account of one phase.
type phaseResult struct {
	// Scheduled counts requests on the schedule; Sent those launched;
	// Dropped those refused by the in-flight bound (Scheduled = Sent +
	// Dropped).
	Scheduled, Sent, Dropped int
	// DroppedAt lists the schedule indices of the dropped requests.
	DroppedAt []int
	// Latency holds one entry per scheduled request, in seconds from
	// its scheduled send to its answer; dropped and failed requests
	// are +Inf, since a refused request misses any latency limit.
	Latency []float64
	// Lag holds, per sent request, how late the generator launched it
	// relative to its schedule, in seconds.
	Lag []float64
	// InflightMax is the most requests in flight at once.
	InflightMax int
	// Elapsed runs from the phase start to the last answer.
	Elapsed time.Duration
}

// runPhase launches do(ctx, i) for every offset in schedule at
// start+offset, keeping at most maxInflight calls outstanding, and
// waits for all of them.
func runPhase(ctx context.Context, clk clock, schedule []time.Duration, maxInflight int,
	do func(ctx context.Context, i int) error) *phaseResult {
	res := &phaseResult{
		Scheduled: len(schedule),
		Latency:   make([]float64, len(schedule)),
		Lag:       make([]float64, 0, len(schedule)),
	}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		mu       sync.Mutex
		last     time.Time
	)
	start := clk.now()
	last = start
	for i, off := range schedule {
		due := start.Add(off)
		clk.sleepUntil(due)
		sent := clk.now()
		if n := inflight.Load(); n >= int64(maxInflight) {
			res.Dropped++
			res.DroppedAt = append(res.DroppedAt, i)
			res.Latency[i] = math.Inf(1)
			continue
		}
		n := int(inflight.Add(1))
		if n > res.InflightMax {
			res.InflightMax = n
		}
		res.Sent++
		res.Lag = append(res.Lag, sent.Sub(due).Seconds())
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			err := do(ctx, i)
			done := clk.now()
			inflight.Add(-1)
			if err != nil {
				res.Latency[i] = math.Inf(1)
			} else {
				res.Latency[i] = done.Sub(due).Seconds()
			}
			mu.Lock()
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}(i, due)
	}
	wg.Wait()
	res.Elapsed = last.Sub(start)
	return res
}

// minTail is the fewest samples that must lie beyond a reported
// percentile: with fewer, the "percentile" is one or two outliers.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0,1]).
// It refuses when fewer than minTail samples lie beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, n-rank, minTail)
	}
	return quantile(xs, q), nil
}

// quantile is the nearest-rank q-quantile of xs without the tail rule,
// for per-layer summaries; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
