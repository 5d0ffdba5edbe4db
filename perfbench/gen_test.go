package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps; late makes every
// wake-up that much past its deadline.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	late time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wake := t.Add(c.late); wake.After(c.t) {
		c.t = wake
	}
}

func evenly(n int, gap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * gap
	}
	return out
}

func TestPoissonScheduleRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rate, n = 200.0, 20000
	s := poissonSchedule(rng, rate, n)
	if len(s) != n {
		t.Fatalf("%d arrivals, want %d", len(s), n)
	}
	// n exponential gaps of mean 1/rate: the span is n/rate within a
	// few standard deviations (sqrt(n)/rate).
	want := n / rate
	if got := s[n-1].Seconds(); math.Abs(got-want) > 4*math.Sqrt(n)/rate {
		t.Errorf("span %.2fs, want %.2fs", got, want)
	}
	w := poissonWindow(rng, 500, 10*time.Second)
	if got, sd := float64(len(w)), math.Sqrt(5000); math.Abs(got-5000) > 4*sd {
		t.Errorf("window holds %v arrivals, want 5000±%.0f", got, 4*sd)
	}
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1] || w[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, w[i])
		}
	}
}

func TestRunPhaseRateAccounting(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	sched := evenly(500, 2*time.Millisecond) // 500/s for 1 s
	var calls sync.Map
	// The fake clock never waits, so calls may all overlap: the bound
	// must not drop any of them here.
	res := runPhase(context.Background(), clk, sched, len(sched), func(_ context.Context, i int) error {
		calls.Store(i, true)
		return nil
	})
	if res.Scheduled != 500 || res.Sent != 500 || res.Dropped != 0 {
		t.Fatalf("scheduled %d sent %d dropped %d, want 500/500/0", res.Scheduled, res.Sent, res.Dropped)
	}
	// Every request launched exactly on schedule: 500 over 1 s.
	for i, l := range res.Lag {
		if l != 0 {
			t.Fatalf("lag[%d] = %v on a clock that wakes on time", i, l)
		}
	}
	if got := res.Elapsed; got < time.Second {
		t.Errorf("phase took %v, want at least the scheduled 1s", got)
	}
	for i := range sched {
		if _, ok := calls.Load(i); !ok {
			t.Fatalf("request %d never sent", i)
		}
		if l := res.Latency[i]; l < 0 || math.IsInf(l, 0) {
			t.Fatalf("latency[%d] = %v", i, l)
		}
	}
}

func TestRunPhaseLatenessAccounting(t *testing.T) {
	const late = 5 * time.Millisecond
	clk := &fakeClock{t: time.Unix(0, 0), late: late}
	sched := evenly(50, 10*time.Millisecond)
	res := runPhase(context.Background(), clk, sched, len(sched), func(context.Context, int) error { return nil })
	if len(res.Lag) != 50 {
		t.Fatalf("%d lag samples, want 50", len(res.Lag))
	}
	for i, l := range res.Lag {
		if l != late.Seconds() {
			t.Fatalf("lag[%d] = %v, want %v", i, l, late.Seconds())
		}
		// Latency runs from the scheduled send, so it includes the lag.
		if res.Latency[i] < late.Seconds() {
			t.Fatalf("latency[%d] = %v, want at least the %v lag charged", i, res.Latency[i], late.Seconds())
		}
	}
	if got := quantile(res.Lag, 0.99); got != late.Seconds() {
		t.Errorf("lag p99 %v, want %v", got, late.Seconds())
	}
}

func TestRunPhaseDropsPastInflightBound(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(3)
	done := make(chan *phaseResult)
	go func() {
		done <- runPhase(context.Background(), clk, evenly(10, time.Millisecond), 3, func(context.Context, int) error {
			started.Done()
			<-release
			return nil
		})
	}()
	started.Wait()
	close(release)
	res := <-done
	if res.Sent != 3 || res.Dropped != 7 || res.InflightMax != 3 {
		t.Fatalf("sent %d dropped %d inflight max %d, want 3/7/3", res.Sent, res.Dropped, res.InflightMax)
	}
	for k, i := range res.DroppedAt {
		if i != k+3 || !math.IsInf(res.Latency[i], 1) {
			t.Fatalf("dropped request %d: index %d latency %v, want index %d at +Inf", k, i, res.Latency[i], k+3)
		}
	}
}

func TestRunPhaseFailuresMissEveryLimit(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	res := runPhase(context.Background(), clk, evenly(4, time.Millisecond), 4, func(_ context.Context, i int) error {
		if i%2 == 1 {
			return errors.New("refused")
		}
		return nil
	})
	for i, l := range res.Latency {
		if math.IsInf(l, 1) != (i%2 == 1) {
			t.Fatalf("latency[%d] = %v", i, l)
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 means refused
	}{
		{1000, 0.99, 990}, // exactly 10 beyond
		{999, 0.99, 0},    // 9 beyond
		{20, 0.5, 10},
		{19, 0.5, 0},
		{5000, 0.99, 4950},
	} {
		got, err := percentile(xs(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d: got %v, want refusal", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d = %v, %v; want %v", 100*c.q, c.n, got, err, c.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 10}
	kids := []span{
		{Parent: 1, Start: 1, End: 4},
		{Parent: 1, Start: 3, End: 6},   // overlaps the first
		{Parent: 1, Start: 8, End: 12},  // runs past the parent
		{Parent: 1, Start: 20, End: 30}, // outside it
	}
	if got := covered(parent, kids); got != 7 {
		t.Errorf("covered %v, want 7 (1-6 and 8-10)", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
	for _, w := range b.Workloads {
		found := false
		for _, have := range workloads {
			found = found || have.name == w.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
	}
}
