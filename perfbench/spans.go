package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. IDs start at 1; parent 0 is
// a root. Spans of one flow share its flow number (0 = none).
type span struct {
	name             string
	id, parent, flow int32
	start, end       int64 // ns since the log's origin
}

// spanLog keeps spans in memory until the benchmark writes them out. A log
// is not safe for concurrent use: each goroutine records into its own log,
// made with fork, and the logs are merged once the goroutines are done.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// fork returns an empty log on the same clock.
func (l *spanLog) fork() *spanLog { return &spanLog{t0: l.t0} }

// merge appends o's spans, renumbering their ids and parents past l's.
func (l *spanLog) merge(o *spanLog) {
	off := int32(len(l.spans))
	for _, s := range o.spans {
		s.id += off
		if s.parent > 0 {
			s.parent += off
		}
		l.spans = append(l.spans, s)
	}
}

// begin opens a span whose end is set later with end.
func (l *spanLog) begin(name string, parent, flow int32, start int64) int32 {
	return l.add(name, parent, flow, start, start)
}

func (l *spanLog) end(id int32, end int64) { l.spans[id-1].end = end }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, flow int32, start, end int64) int32 {
	id := int32(len(l.spans) + 1)
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, flow: flow, start: start, end: end})
	return id
}

// layerTime is the self time of every span of one name: its duration minus
// the durations of its child spans.
type layerTime struct {
	Name   string `json:"name"`
	Calls  int    `json:"calls"`
	SelfNS int64  `json:"self_ns"`
}

func (t layerTime) meanNS() float64 {
	if t.Calls == 0 {
		return 0
	}
	return float64(t.SelfNS) / float64(t.Calls)
}

// selfTimes sums self time per span name.
func (l *spanLog) selfTimes() map[string]layerTime {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent > 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	out := map[string]layerTime{}
	for i, s := range l.spans {
		t := out[s.name]
		t.Name = s.name
		t.Calls++
		t.SelfNS += s.end - s.start - child[i]
		out[s.name] = t
	}
	return out
}

// write stores the spans as JSON lines: a header with the run's metadata,
// one [name, id, parent, flow, start_ns, end_ns] array per span, and a
// closing line with the per-name self times.
func (l *spanLog) write(path string, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		f.Close()
		return err
	}
	for _, s := range l.spans {
		fmt.Fprintf(bw, "[%q,%d,%d,%d,%d,%d]\n", s.name, s.id, s.parent, s.flow, s.start, s.end)
	}
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := make([]layerTime, 0, len(names))
	for _, n := range names {
		summary = append(summary, self[n])
	}
	if err := enc.Encode(map[string]any{"self_times": summary}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
