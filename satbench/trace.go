package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call into a layer.  A replay span times a public
// call repeated after the pass to measure a phase that runs inside
// another layer's call (PODEM and the exhaustive fallback inside
// satpg.Run): its duration counts as a child of Parent even though it
// lies outside the parent's interval.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Run    string  `json:"run"`
	Replay bool    `json:"replay,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them once the run ends.
// A nil *tracer records nothing, which is how the untraced runs and
// passes call the same code.
type tracer struct {
	mu     sync.Mutex
	run    string
	origin time.Time
	spans  []span
}

func newTracer(run string) *tracer { return &tracer{run: run, origin: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.origin).Seconds() }

// begin opens a span under parent and returns its ID (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now, Run: t.run})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span measured by the caller.
func (t *tracer) record(name string, parent int, start, end time.Time, replay bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: t.since(start), End: t.since(end), Run: t.run, Replay: replay})
	return id
}

// selfTimes sums, per span name, the self time of every span under
// root (root included): a span's duration minus its children's.  The
// values add up to root's duration by construction; what they show is
// where it went.  A negative self time means replayed children took
// longer than the call that contains them.
func (t *tracer) selfTimes(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	out := map[string]float64{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		self := s.dur()
		for _, c := range children[id] {
			self -= t.spans[c-1].dur()
			walk(c)
		}
		out[s.Name] += self
	}
	walk(root)
	return out
}

// duration returns span id's length in seconds.
func (t *tracer) duration(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].dur()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// writeSpans writes a traced run's spans and its set-up spans under
// cfg.out.
func writeSpans(cfg *config, run, setup *tracer) error {
	if err := run.write(filepath.Join(cfg.out, "spans-"+cfg.runID+".jsonl")); err != nil {
		return err
	}
	return setup.write(filepath.Join(cfg.out, "spans-"+cfg.runID+"-setup.jsonl"))
}
