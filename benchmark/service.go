package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/vfs"
)

// service is one running skylined namespace behind a loopback listener.
type service struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
	url string // namespace root, e.g. http://127.0.0.1:1234/v1/bench
}

// seed writes the base set into a fresh durable directory — the only
// public way to preload a skylined namespace.
func seed(parent string, base []geom.Point, fs vfs.FS) (string, error) {
	dir, err := os.MkdirTemp(parent, "ns-")
	if err != nil {
		return "", err
	}
	db, err := core.Open(core.Options{Dir: dir, FS: fs}, base)
	if err != nil {
		return "", fmt.Errorf("seed: %w", err)
	}
	if err := db.Close(); err != nil {
		return "", fmt.Errorf("seed: close: %w", err)
	}
	return dir, nil
}

// setupTimes splits a namespace's set-up: total runs from the start of
// seeding to the first answered request, reopen is that first request,
// which opens the seeded directory (snapshot read plus index build).
type setupTimes struct {
	total, reopen time.Duration
}

// startService seeds a namespace and serves it, wrapping the handler
// with wrap when non-nil. It returns once the namespace has answered
// its first request.
func startService(d *dataset, parent string, fs vfs.FS, wrap func(http.Handler) http.Handler) (*service, setupTimes, error) {
	t0 := time.Now()
	dir, err := seed(parent, d.base, fs)
	if err != nil {
		return nil, setupTimes{}, err
	}
	srv, err := serve.New(serve.Config{
		Namespaces: map[string]serve.NamespaceConfig{nsName: d.w.nsConfig(dir)},
		FS:         fs,
	})
	if err != nil {
		return nil, setupTimes{}, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	svc := &service{
		dir: dir, srv: srv, ts: ts,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		url: ts.URL + "/v1/" + nsName,
	}
	t1 := time.Now()
	n, err := svc.len()
	t2 := time.Now()
	if err != nil {
		svc.stop()
		return nil, setupTimes{}, err
	}
	if n != len(d.base) {
		svc.stop()
		return nil, setupTimes{}, fmt.Errorf("seeded namespace holds %d points, want %d", n, len(d.base))
	}
	return svc, setupTimes{total: t2.Sub(t0), reopen: t2.Sub(t1)}, nil
}

// stop closes the listener, then the namespace: Close drains the queue
// and checkpoints, so every acknowledged write is on disk afterwards.
func (s *service) stop() error {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	return s.srv.Close()
}

func (s *service) get(path string, v any) error {
	resp, err := s.hc.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *service) len() (int, error) {
	var r struct {
		Len int `json:"len"`
	}
	err := s.get("/len", &r)
	return r.Len, err
}

// nsStats is the part of GET /stats the benchmark reads.
type nsStats struct {
	IOs   uint64      `json:"ios"`
	Queue queueCounts `json:"queue"`
	Cache cacheCounts `json:"cache"`
}

// queueCounts and cacheCounts decode the engine's counter structs.
type queueCounts struct{ Enqueued, Drained, ReadDrains uint64 }

type cacheCounts struct{ Hits, Misses, Invalidations uint64 }

func (s *service) stats() (nsStats, error) {
	var st nsStats
	err := s.get("/stats", &st)
	return st, err
}

// opHeader carries a traced request's op id to the handler middleware.
const opHeader = "X-Bench-Op"

// reply is a decoded 200 response of any of the three endpoints.
type reply struct {
	Points []struct {
		X geom.Coord `json:"x"`
		Y geom.Coord `json:"y"`
	} `json:"points"`
	Inserted int `json:"inserted"`
	Removed  int `json:"removed"`
}

func (r *reply) points() []geom.Point {
	out := make([]geom.Point, len(r.Points))
	for i, p := range r.Points {
		out[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return out
}

// request builds o's HTTP request against the namespace root url.
func request(url string, o op) *http.Request {
	var path string
	var body []byte
	switch o.kind {
	case opRead:
		path, body = "/query", o.q.body
	case opInsert:
		path, body = "/insert", pointBody(o.pt)
	default:
		path, body = "/delete", pointBody(o.pt)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the url and method are the benchmark's own constants
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

// checkReply validates one 200 response: a read must return a valid
// staircase inside its rectangle (O(k)), an insert must report one
// point inserted, and a delete — which only ever targets a live point —
// one point removed (accepted, on an async namespace).
func checkReply(o op, r *reply) error {
	switch o.kind {
	case opInsert:
		if r.Inserted != 1 {
			return fmt.Errorf("insert %v: inserted %d", o.pt, r.Inserted)
		}
	case opDelete:
		if r.Removed != 1 {
			return fmt.Errorf("delete of live point %v: removed %d", o.pt, r.Removed)
		}
	default:
		return checkStaircase(r.points(), o.q.rect)
	}
	return nil
}

// checkStaircase reports whether pts is a skyline-shaped answer inside
// rect: x strictly increasing, y strictly decreasing.
func checkStaircase(pts []geom.Point, rect geom.Rect) error {
	for i, p := range pts {
		if !rect.Contains(p) {
			return fmt.Errorf("query %v: answer point %v outside the rectangle", rect, p)
		}
		if i > 0 && (p.X <= pts[i-1].X || p.Y >= pts[i-1].Y) {
			return fmt.Errorf("query %v: answer is not a staircase at %v after %v", rect, p, pts[i-1])
		}
	}
	return nil
}

// sample is one completed request: when it ended (since the window
// opened), how long it took, and whether it was a write.
type sample struct {
	end, lat time.Duration
	write    bool
}

// abort is the run-wide wrong-answer latch: the first failed check
// stops every client.
type abort struct {
	set  atomic.Bool
	once sync.Once
	err  error
}

func (a *abort) fail(err error) {
	a.once.Do(func() { a.err = err; a.set.Store(true) })
}

// loadResult is what one closed-loop window measured.
type loadResult struct {
	samples   []sample
	attempted int
	failed    int
	elapsed   time.Duration
}

func (r loadResult) completed() int { return r.attempted - r.failed }

// runLoad drives one closed-loop client per stream against svc for d.
// A non-2xx status or a transport failure counts as failed; a wrong
// answer latches ab and stops every client. With tr non-nil each
// request carries an op id and records a client round-trip span.
func runLoad(svc *service, streams []*stream, d time.Duration, tr *tracer, ab *abort) loadResult {
	start := time.Now()
	deadline := start.Add(d)
	per := make([]loadResult, len(streams))
	var wg sync.WaitGroup
	for ci, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &per[ci]
			for !ab.set.Load() && time.Now().Before(deadline) {
				o := s.next()
				req := request(svc.url, o)
				var id int64
				if tr != nil {
					id = tr.ids.Add(1)
					req.Header.Set(opHeader, strconv.FormatInt(id, 10))
				}
				t0 := time.Now()
				var r reply
				status, err := roundTrip(svc.hc, req, &r)
				t1 := time.Now()
				res.attempted++
				if err != nil || status != http.StatusOK {
					res.failed++
					s.fail(o)
					continue
				}
				if err := checkReply(o, &r); err != nil {
					ab.fail(err)
					return
				}
				s.ack(o)
				res.samples = append(res.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0), write: o.kind != opRead})
				if tr != nil {
					tr.add(span{Name: "http.rtt", Start: tr.at(t0), End: tr.at(t1), Op: id})
				}
			}
		}()
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start)}
	for _, r := range per {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
	}
	return out
}

// roundTrip sends req and decodes a 200 body into r.
func roundTrip(hc *http.Client, req *http.Request, r *reply) (int, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, r)
}
