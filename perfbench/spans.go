package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one job
// share Trace; Parent is the span of the enclosing call (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder was created
	End    int64  `json:"endNs"`

	prevReq int64 // the innermost span for the request id before this one
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory for the traced run. Calls that cross into
// server goroutines are linked by the X-Request-Id header, which the client
// sets and the gateway forwards unchanged: each tier looks up the innermost
// open span for the id as its parent.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	byReq map[string]int64 // request id -> innermost open span id
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byReq: map[string]int64{}}
}

// start opens a span and returns its id.
func (r *recorder) start(name string, parent, trace int64) int64 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

func (r *recorder) end(id int64) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed records fn as a span and returns fn's error.
func (r *recorder) timed(name string, parent, trace int64, fn func() error) error {
	id := r.start(name, parent, trace)
	err := fn()
	r.end(id)
	return err
}

// startReq opens a span whose parent is the innermost open span carrying
// request id req (or parent, when the id is new), and makes it innermost.
func (r *recorder) startReq(name, req string, parent, trace int64) int64 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, ok := r.byReq[req]
	if ok {
		parent, trace = prev, r.spans[prev-1].Trace
	}
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, prevReq: prev})
	r.byReq[req] = id
	return id
}

// endReq closes a span opened by startReq and restores its parent as the
// innermost span for the request id.
func (r *recorder) endReq(id int64, req string) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	if s.prevReq != 0 {
		r.byReq[req] = s.prevReq
	} else {
		delete(r.byReq, req)
	}
}

// snapshotOne returns span id as recorded so far.
func (r *recorder) snapshotOne(id int64) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of it covered by
// its children, keyed by span id, and the covered part.
func selfTimes(spans []span) (self, covered map[int64]time.Duration) {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = make(map[int64]time.Duration, len(spans))
	covered = make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var cov, hi int64
		hi = s.Start
		for _, c := range ch {
			lo, e := max(c.Start, hi), min(c.End, s.End)
			if e > lo {
				cov += e - lo
				hi = e
			}
		}
		covered[s.ID] = time.Duration(cov)
		self[s.ID] = s.dur() - time.Duration(cov)
	}
	return self, covered
}

// durations returns the durations of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].dur()))
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracing holds the recorder of the traced pass; nil while untraced, so
// the HTTP wrappers below cost one atomic load outside it.
type tracing struct{ rec atomic.Pointer[recorder] }

// timedHandler wraps a tier's http.Handler with a span per request to the
// paths it names (path -> span name).
type timedHandler struct {
	names map[string]string
	next  http.Handler
	tr    *tracing
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	rec := h.tr.rec.Load()
	name, ok := h.names[req.URL.Path]
	if rec == nil || !ok {
		h.next.ServeHTTP(w, req)
		return
	}
	rid := req.Header.Get("X-Request-Id")
	id := rec.startReq(name, rid, 0, 0)
	h.next.ServeHTTP(w, req)
	rec.endReq(id, rid)
}

// timedTransport wraps a client's transport with a span per round trip,
// from sending the request until its body has been read. One goroutine
// drives each client, so parent and trace are plain fields its caller sets
// before each call.
type timedTransport struct {
	next          http.RoundTripper
	tr            *tracing
	parent, trace int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := t.tr.rec.Load()
	if rec == nil {
		return t.next.RoundTrip(req)
	}
	rid := req.Header.Get("X-Request-Id")
	if rid == "" {
		return nil, fmt.Errorf("perfbench: request without X-Request-Id")
	}
	id := rec.startReq("client.roundtrip", rid, t.parent, t.trace)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		rec.endReq(id, rid)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { rec.endReq(id, rid) }}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}
