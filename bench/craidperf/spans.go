package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one interval recorded from the benchmark's own files around a
// call into a layer. Parent is the id of the span that caused it, -1
// for the workload's root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer
// records nothing: that is a run with tracing off.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(), Workload: t.workload})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// write emits the spans as NDJSON, one object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
