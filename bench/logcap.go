package main

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// logRecord is one structured record the daemon, coordinator or a worker
// emitted, with every attribute (including those bound by Logger.With)
// flattened into Attrs.
type logRecord struct {
	Time  time.Time
	Msg   string
	Attrs map[string]slog.Value
}

// logSink collects records in memory.  The traced run passes a logger
// backed by it as serve.Options.Logger and cluster.*Options.Logger, so
// shard and lease timings come from the program's own records.
type logSink struct {
	mu   sync.Mutex
	recs []logRecord
}

func (s *logSink) logger() *slog.Logger { return slog.New(&captureHandler{sink: s}) }

func (s *logSink) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = nil
}

func (s *logSink) records() []logRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]logRecord(nil), s.recs...)
}

type captureHandler struct {
	sink   *logSink
	attrs  []slog.Attr
	prefix string
}

func (h *captureHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{Time: r.Time, Msg: r.Message, Attrs: make(map[string]slog.Value, len(h.attrs)+r.NumAttrs())}
	for _, a := range h.attrs {
		rec.Attrs[a.Key] = a.Value.Resolve()
	}
	r.Attrs(func(a slog.Attr) bool {
		rec.Attrs[h.prefix+a.Key] = a.Value.Resolve()
		return true
	})
	h.sink.mu.Lock()
	h.sink.recs = append(h.sink.recs, rec)
	h.sink.mu.Unlock()
	return nil
}

func (h *captureHandler) WithAttrs(as []slog.Attr) slog.Handler {
	c := *h
	c.attrs = append([]slog.Attr(nil), h.attrs...)
	for _, a := range as {
		c.attrs = append(c.attrs, slog.Attr{Key: h.prefix + a.Key, Value: a.Value})
	}
	return &c
}

func (h *captureHandler) WithGroup(name string) slog.Handler {
	c := *h
	c.prefix = h.prefix + name + "."
	return &c
}

// str and dur read typed attributes, zero when absent.
func (r logRecord) str(key string) string {
	if v, ok := r.Attrs[key]; ok {
		return v.String()
	}
	return ""
}

func (r logRecord) dur(key string) time.Duration {
	if v, ok := r.Attrs[key]; ok && v.Kind() == slog.KindDuration {
		return v.Duration()
	}
	return 0
}

func (r logRecord) boolean(key string) bool {
	v, ok := r.Attrs[key]
	return ok && v.Kind() == slog.KindBool && v.Bool()
}
