package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spans the benchmark records around its calls into each layer. A
// span has a name, a start, an end and the span that caused it; the
// spans of one logical request share its request ID. Spans stay in
// memory and are written out when the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.

type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef identifies an open span for its children.
type spanRef struct {
	id, req uint64
}

// begin opens a span; finish it with end.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Now()
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	req := parent.req
	if req == 0 && parent.id == 0 {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Start: now.Sub(t.t0).Seconds()})
	t.mu.Unlock()
	return spanRef{id: id, req: req}
}

func (t *tracer) end(ref spanRef) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[ref.id-1].End = now
	t.mu.Unlock()
}

// add records a finished span with explicit times.
func (t *tracer) add(name string, parent spanRef, start, end time.Time) {
	if t == nil {
		return
	}
	ref := t.begin(name, parent)
	t.mu.Lock()
	t.spans[ref.id-1].Start = start.Sub(t.t0).Seconds()
	t.spans[ref.id-1].End = end.Sub(t.t0).Seconds()
	t.mu.Unlock()
}

// durations returns the lengths of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes sums, per span name, the time each span did not spend
// inside its children: its duration minus the union of its children's
// intervals clipped to it (children of one span may overlap, e.g. the
// concurrent copies of a redundant request).
func (t *tracer) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := t.children()
	for _, s := range t.spans {
		out[s.Name] += (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// childOverhead returns, for every span named name that has exactly
// one child, the span's duration minus the child's: for a client call
// whose child is the server handler, the time spent outside the
// handler (client, transport and network).
func (t *tracer) childOverhead(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := t.children()
	var out []float64
	for _, s := range t.spans {
		if c := kids[s.ID]; s.Name == name && len(c) == 1 {
			out = append(out, (s.End-s.Start)-(c[0].End-c[0].Start))
		}
	}
	return out
}

// children groups the spans by parent; callers hold t.mu.
func (t *tracer) children() map[uint64][]span {
	kids := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Span context crosses the HTTP boundary in a header, so the handler
// span on the server side becomes a child of the client call's span.

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

const spanHeader = "X-Perfbench-Span"

// spanTransport stamps the caller's span on each outgoing request.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref := spanFrom(req.Context()); ref.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(ref.id, 10)+"/"+strconv.FormatUint(ref.req, 10))
	}
	return t.base.RoundTrip(req)
}

// spanHandler records a service.handler span around the wrapped
// handler, parented to the client span named in the request header.
// Requests without one (connection warm-up) are not recorded.
type spanHandler struct {
	tr   *tracer
	next http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id, req, ok := strings.Cut(r.Header.Get(spanHeader), "/")
	if !ok {
		return
	}
	// Only spanTransport writes the header, so it always parses.
	var parent spanRef
	parent.id, _ = strconv.ParseUint(id, 10, 64)
	parent.req, _ = strconv.ParseUint(req, 10, 64)
	h.tr.add("service.handler", parent, start, end)
}
