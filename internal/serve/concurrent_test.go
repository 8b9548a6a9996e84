package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/geom"
)

// post sends one JSON request and returns the status code; unlike call
// it reports failures as errors, so client goroutines can use it.
func post(url string, body any) (int, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close() //errlint:ok test client
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// TestDefaultNamespaceConcurrent is the regression test for a namespace
// configured `{}` (shards omitted) under concurrent requests: 4 clients
// mixing single-point inserts and top-open queries must see no 5xx and
// no dropped connection, the race detector must stay quiet (CI runs
// this package under -race), and the final index must match the
// oracle.
func TestDefaultNamespaceConcurrent(t *testing.T) {
	_, hs := newTestServer(t, Config{Namespaces: map[string]NamespaceConfig{"d": {}}})
	const clients, per = 4, 120
	span := geom.Coord(clients * per * 16)
	pts := geom.GenUniform(clients*per, int64(span), 1313)

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(mine []geom.Point) {
			defer wg.Done()
			for k, p := range mine {
				code, err := post(hs.URL+"/v1/d/insert", map[string]any{"point": map[string]geom.Coord{"x": p.X, "y": p.Y}})
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d", code)
				}
				if err != nil {
					errc <- fmt.Errorf("insert %v: %w", p, err)
					return
				}
				x1 := geom.Coord(k) * span / per
				q := map[string]any{"shape": "top-open", "x1": x1, "x2": x1 + span/4, "beta": p.Y / 2}
				if code, err = post(hs.URL+"/v1/d/query", q); err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d", code)
				}
				if err != nil {
					errc <- fmt.Errorf("top-open query: %w", err)
					return
				}
			}
		}(pts[c*per : (c+1)*per])
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	var ln struct {
		Len int `json:"len"`
	}
	call(t, "GET", hs.URL+"/v1/d/len", nil, &ln)
	if ln.Len != len(pts) {
		t.Errorf("len %d, want %d", ln.Len, len(pts))
	}
	var resp queryResp
	call(t, "POST", hs.URL+"/v1/d/query", map[string]any{"shape": "skyline"}, &resp)
	if got, want := pointsOf(resp), geom.Skyline(pts); !samePts(got, want) {
		t.Errorf("skyline %v, want %v", got, want)
	}
}

// TestRecoverPanics wraps a panicking handler: the client gets a typed
// 500 ("panic") instead of a dropped connection, the server-wide
// counter moves, and /stats reports it.
func TestRecoverPanics(t *testing.T) {
	srv, hs := newTestServer(t, Config{Namespaces: testNS})
	h := srv.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/t/query", nil))
		var body struct{ Error, Code string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("unmarshal %q: %v", rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusInternalServerError || body.Code != "panic" {
			t.Fatalf("panicking handler answered %d %q, want 500 \"panic\"", rec.Code, body.Code)
		}
	}
	if got := srv.panics.Load(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}
	var stats statsResp
	if code, _ := call(t, "GET", hs.URL+"/v1/t/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Panics != 2 {
		t.Fatalf("/stats panics = %d, want 2", stats.Panics)
	}

	// net/http's own abort signal passes through untouched.
	abort := srv.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("recovered %v, want http.ErrAbortHandler re-raised", v)
			}
		}()
		abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}()
	if got := srv.panics.Load(); got != 2 {
		t.Fatalf("abort counted as a panic: counter = %d", got)
	}
}
