package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one request
// share a trace id (the aegisd job id, or the workload name for the
// simulation workloads); Parent is 0 for a root.
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanStore keeps spans in memory; they are written out once, when the
// traced run ends, so recording costs no I/O on the measured path.
type spanStore struct {
	mu   sync.Mutex
	list []span
}

// add records a span and returns its id.
func (st *spanStore) add(trace, name string, parent int, start, end time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	id := len(st.list) + 1
	st.list = append(st.list, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// setEnd closes a span opened before its end was known.
func (st *spanStore) setEnd(id int, end time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.list[id-1].End = end.UnixNano()
}

func (st *spanStore) spans() []span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]span(nil), st.list...)
}

// selfTimes maps each span id to its self time: the span's duration
// minus the part of its interval that the union of its children covers.
// Overlapping or nested children count once; children reaching outside
// the parent are clipped to it.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	end := lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfByName sums self time by span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// appendJSONL appends spans to path as one JSON object per line.
func appendJSONL(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
