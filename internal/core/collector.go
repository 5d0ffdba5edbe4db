// Streaming statistics plumbing: the Collector interface lets
// experiment reductions consume job records as a stream, and
// DropRecords keeps them from being handed back in Result.Jobs.

package core

// Collector consumes completed jobs as a stream. The engine calls
// Observe from a single goroutine, exactly once per completed job
// (jobs unfinished at a StopAtHorizon truncation are not observed).
//
// Records arrive in Result.Jobs order: cluster 0's jobs in arrival
// order, then cluster 1's, and so on. The record is only valid for the
// duration of the call; copy what you keep.
type Collector interface {
	Observe(rec *JobRecord)
}
