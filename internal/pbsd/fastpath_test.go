// Fast-path tests: the incremental scheduling cycle must keep
// per-operation work flat where the full-scan mode pays O(queue), and
// the lock split must let Stat/Counters answer while a scheduling
// cycle holds the queue lock.

package pbsd

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The incremental mode's whole point: churn against a deep queue
// examines O(1) jobs per operation, not the whole queue.
func TestIncrementalCycleSkipsQueueScan(t *testing.T) {
	s := newTestServer(t, 16, false)
	const preload = 500
	for i := 0; i < preload; i++ {
		if _, err := s.Submit("p", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	c0, s0 := s.Counters()
	if _, err := s.Submit("probe", 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteHead(); err != nil {
		t.Fatal(err)
	}
	c1, s1 := s.Counters()
	if c1-c0 != 2 {
		t.Fatalf("expected 2 cycles, got %d", c1-c0)
	}
	// With execution off nothing can ever start, so neither event needs
	// to examine any job at all.
	if s1-s0 != 0 {
		t.Fatalf("scanned %d jobs across 2 incremental cycles, want 0", s1-s0)
	}
}

// With execution on, the watermark gates the rescan: releasing fewer
// free nodes than the smallest pending request triggers no scan, and
// the release that crosses the watermark runs exactly one.
func TestIncrementalWatermarkGatesRescan(t *testing.T) {
	s := newTestServer(t, 4, true)
	if _, err := s.Submit("hold", 2, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("hold2", 2, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("wide", 4, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if q, r, free := s.Stat(); q != 1 || r != 2 || free != 0 {
		t.Fatalf("q/r/free = %d/%d/%d, want 1/2/0", q, r, free)
	}
	_, s0 := s.Counters()

	// First completion frees 2 nodes — below wide's watermark of 4, so
	// the release must not scan the queue.
	waitFor(t, func() bool { _, r, _ := s.Stat(); return r == 1 })
	if _, s1 := s.Counters(); s1 != s0 {
		t.Fatalf("sub-watermark release scanned %d jobs, want 0", s1-s0)
	}

	// Second completion crosses the watermark: the rescan starts wide,
	// and wide eventually drains the machine.
	waitFor(t, func() bool {
		q, r, free := s.Stat()
		return q == 0 && r == 0 && free == 4
	})
	if _, s1 := s.Counters(); s1 == s0 {
		t.Fatal("watermark-crossing release never scanned the queue")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stat and Counters are lock-free: they must answer even while another
// goroutine holds both the queue and the running-set locks (as a
// scheduling cycle does at its worst).
func TestStatDoesNotBlockOnSchedulingLocks(t *testing.T) {
	s := newTestServer(t, 16, false)
	if _, err := s.Submit("a", 2, time.Hour); err != nil {
		t.Fatal(err)
	}
	s.qmu.Lock()
	s.rmu.Lock()
	done := make(chan [3]int, 1)
	go func() {
		q, r, free := s.Stat()
		s.Counters()
		done <- [3]int{q, r, free}
	}()
	select {
	case got := <-done:
		if got != [3]int{1, 0, 16} {
			t.Errorf("Stat under held locks = %v, want [1 0 16]", got)
		}
	case <-time.After(time.Second):
		t.Error("Stat blocked behind the scheduling locks")
	}
	s.rmu.Unlock()
	s.qmu.Unlock()
}

// Race gate: status reads hammering a daemon mid-churn (submit,
// cancel, start, complete) must be clean under -race and must never
// observe impossible gauge values.
func TestStatDuringChurn(t *testing.T) {
	s := newTestServer(t, 4, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Submit(fmt.Sprintf("c%d-%d", w, i), 1+i%4, time.Millisecond); err != nil {
					return
				}
				if i%2 == 0 {
					s.DeleteHead()
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q, r, free := s.Stat()
				if q < 0 || r < 0 || free < 0 || free > 4 {
					t.Errorf("impossible Stat: q=%d r=%d free=%d", q, r, free)
					return
				}
				s.Counters()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// cycleTrace is what one run of a submit/delete script leaves behind:
// each operation's outcome with the queue after it, the order in which
// jobs started (read back from the journal's R lines), and how many
// submissions started past a blocked queue (backfills).
type cycleTrace struct {
	steps     []string
	starts    []string
	backfills int
}

// runCycleScript drives a fixed, seeded submit/delete script through
// an executing daemon in the given cycle mode. Walltimes are whole
// minutes of at least an hour, so no job completes while the script
// runs and every backfill test (now+walltime before a start+walltime
// shadow) is decided by the minutes, not by the few milliseconds the
// script takes. One job in five is wide enough to block the queue.
func runCycleScript(t *testing.T, fullScan bool) cycleTrace {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{Nodes: 512, Execute: true, FullScanCycle: fullScan, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var tr cycleTrace
	rnd := uint64(0x5eed)
	next := func(n int) int { // xorshift: the same script in both modes
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return int(rnd % uint64(n))
	}
	var ids []int64
	for op := 0; op < 400; op++ {
		var res string
		submitted := int64(-1)
		switch r := next(10); {
		case r < 6 || len(ids) == 0:
			nodes := 1 + next(16)
			if next(5) == 0 {
				nodes = 128 + next(384)
			}
			wall := time.Duration(60+next(600)) * time.Minute
			id, err := s.Submit("j", nodes, wall)
			ids = append(ids, id)
			submitted = id
			res = fmt.Sprintf("S %d %v -> %d %v", nodes, wall, id, err)
		case r < 8:
			id := ids[next(len(ids))]
			res = fmt.Sprintf("D %d -> %v", id, s.Delete(id))
		default:
			id, err := s.DeleteHead()
			res = fmt.Sprintf("H -> %d %v", id, err)
		}
		q, run, free := s.Stat()
		pending := make([]int64, 0, q)
		for _, j := range s.Pending() {
			pending = append(pending, j.ID)
		}
		if submitted >= 0 && q > 0 && !slices.Contains(pending, submitted) {
			tr.backfills++
		}
		tr.steps = append(tr.steps, fmt.Sprintf("%s | q=%d r=%d free=%d %v", res, q, run, free, pending))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(log), "\n") {
		if strings.HasPrefix(line, "R ") {
			tr.starts = append(tr.starts, line)
		}
	}
	return tr
}

// TestCycleModesStartSameJobs is the differential test between the
// paper-faithful full-scan cycle and the incremental fast path: the
// same script must start the same jobs, in the same order, after the
// same operations, and leave the same queue behind each one.
func TestCycleModesStartSameJobs(t *testing.T) {
	full := runCycleScript(t, true)
	incr := runCycleScript(t, false)
	if len(full.starts) < 20 || full.backfills == 0 {
		t.Fatalf("script started %d jobs (%d backfills); too few to exercise both cycles",
			len(full.starts), full.backfills)
	}
	for i := range full.steps {
		if full.steps[i] != incr.steps[i] {
			t.Fatalf("operation %d diverged:\nfull scan:   %s\nincremental: %s", i, full.steps[i], incr.steps[i])
		}
	}
	if !slices.Equal(full.starts, incr.starts) {
		t.Fatalf("start order diverged:\nfull scan:   %v\nincremental: %v", full.starts, incr.starts)
	}
}
