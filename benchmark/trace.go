package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// span is one timed call at a layer boundary. Spans of one request
// share Op; Parent names the span that caused this one.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent string        `json:"parent,omitempty"`
	Op     int64         `json:"op"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64 // last op id handed out
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) time.Duration { return tm.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the recorded spans called name, keyed by op id.
func (t *tracer) byName(name string) map[int64]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]span{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] = s
		}
	}
	return out
}

// wrap is the handler middleware: requests carrying an op id get a
// serve.handler span; others pass straight through.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(opHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		op, _ := strconv.ParseInt(id, 10, 64)
		t.add(span{Name: "serve.handler", Start: t.at(start), End: t.at(end), Parent: "http.rtt", Op: op})
	})
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countFS is a vfs.FS that counts and times what the durable stack
// does to its files: bytes written, syncs, and each WAL append (the
// WAL writes one record per WriteAt).
type countFS struct {
	vfs.FS
	mu sync.Mutex
	fsCounts
	walAppendUS []float64
}

type fsCounts struct {
	bytes, syncs, walAppends, walBytes int64
}

func (c *countFS) counts() fsCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fsCounts
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: filepath.Ext(name) == ".wal"}, nil
}

type countFile struct {
	vfs.File
	fs  *countFS
	wal bool
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	el := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	if f.wal {
		f.fs.walAppends++
		f.fs.walBytes += int64(n)
		f.fs.walAppendUS = append(f.fs.walAppendUS, us(el))
	}
	f.fs.mu.Unlock()
	return n, err
}

func (f *countFile) Sync() error {
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return err
}

func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{c.bytes - o.bytes, c.syncs - o.syncs, c.walAppends - o.walAppends, c.walBytes - o.walBytes}
}

func (c fsCounts) add(o fsCounts) fsCounts {
	return fsCounts{c.bytes + o.bytes, c.syncs + o.syncs, c.walAppends + o.walAppends, c.walBytes + o.walBytes}
}

// sub returns the counter movement from o to s.
func (s nsStats) sub(o nsStats) nsStats {
	return nsStats{
		IOs:   s.IOs - o.IOs,
		Queue: queueCounts{s.Queue.Enqueued - o.Queue.Enqueued, s.Queue.Drained - o.Queue.Drained, s.Queue.ReadDrains - o.Queue.ReadDrains},
		Cache: cacheCounts{s.Cache.Hits - o.Cache.Hits, s.Cache.Misses - o.Cache.Misses, s.Cache.Invalidations - o.Cache.Invalidations},
	}
}

func (s nsStats) add(o nsStats) nsStats {
	return nsStats{
		IOs:   s.IOs + o.IOs,
		Queue: queueCounts{s.Queue.Enqueued + o.Queue.Enqueued, s.Queue.Drained + o.Queue.Drained, s.Queue.ReadDrains + o.Queue.ReadDrains},
		Cache: cacheCounts{s.Cache.Hits + o.Cache.Hits, s.Cache.Misses + o.Cache.Misses, s.Cache.Invalidations + o.Cache.Invalidations},
	}
}
