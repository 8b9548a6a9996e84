package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// small is a run configuration sized for tests.
func small(t *testing.T, w workload, seed int64) config {
	return config{
		w: w, seed: seed, seconds: 400 * time.Millisecond,
		n: 4096, pool: 2048, replay: 400,
		tmp: t.TempDir(), outDir: t.TempDir(),
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestShortRunEveryWorkload(t *testing.T) {
	want, _ := benchmarkMetrics(t)
	slices.Sort(want)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := plainRun(small(t, w, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := res.Metrics["success_rate"].Value; got != 1 {
				t.Errorf("success_rate = %v, want 1", got)
			}
			if got := metricNames(res); !slices.Equal(got, want) {
				t.Errorf("metrics %v, BENCHMARK.json lists %v", got, want)
			}
		})
	}
}

func TestTracedRunEmitsEveryLayer(t *testing.T) {
	_, want := benchmarkMetrics(t)
	slices.Sort(want)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := tracedRun(small(t, w, 2))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			if got := metricNames(res); !slices.Equal(got, want) {
				t.Errorf("metrics %v, BENCHMARK.json lists %v", got, want)
			}
		})
	}
}

// TestReplayDeterministic replays one seed's op stream twice against
// identically built indexes: the answers and the simulated I/O counts
// must repeat exactly.
func TestReplayDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []*replayed
			var ops []op
			for i := 0; i < 2; i++ {
				d := newDataset(w, 7, 4096, 2048)
				ops = d.streams(1)[0].take(600)
				db, err := core.Open(w.nsConfig(t.TempDir()).Options(), d.base)
				if err != nil {
					t.Fatal(err)
				}
				r, err := replay("core", &coreTarget{db: db}, ops, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, r)
			}
			if err := agree(runs[0], runs[1:], ops); err != nil {
				t.Error(err)
			}
			if !slices.Equal(runs[0].ios, runs[1].ios) {
				t.Error("simulated I/O counts differ between two replays of one seed")
			}
		})
	}
}

// opsKey flattens a stream prefix for comparison.
func opsKey(ops []op) []geom.Rect {
	out := make([]geom.Rect, len(ops))
	for i, o := range ops {
		if o.kind == opRead {
			out[i] = o.q.rect
		} else {
			out[i] = geom.Rect{X1: o.pt.X, Y1: o.pt.Y, X2: geom.Coord(o.kind)}
		}
	}
	return out
}

func TestSeedsGiveDifferentStreams(t *testing.T) {
	for _, w := range workloads {
		a := opsKey(newDataset(w, 1, 4096, 2048).streams(1)[0].take(200))
		again := opsKey(newDataset(w, 1, 4096, 2048).streams(1)[0].take(200))
		b := opsKey(newDataset(w, 2, 4096, 2048).streams(1)[0].take(200))
		if !slices.Equal(a, again) {
			t.Errorf("%s: one seed gave two op streams", w.name)
		}
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
	}
}

// TestStreamsKeepGeneralPosition checks the generator's contract: base
// and pool share no coordinate, and the clients own disjoint shares.
func TestStreamsKeepGeneralPosition(t *testing.T) {
	w, err := lookupWorkload("write-mix")
	if err != nil {
		t.Fatal(err)
	}
	d := newDataset(w, 3, 4096, 2048)
	if !geom.IsGeneralPosition(append(slices.Clone(d.base), d.pool...)) {
		t.Fatal("base and pool share a coordinate")
	}
	seen := map[geom.Point]int{}
	for i, s := range d.streams(clients) {
		for _, p := range append(slices.Clone(s.live), s.pool...) {
			if j, ok := seen[p]; ok {
				t.Fatalf("point %v owned by clients %d and %d", p, j, i)
			}
			seen[p] = i
		}
	}
}

func TestCheckStaircase(t *testing.T) {
	r := geom.Rect{X1: 0, X2: 10, Y1: 0, Y2: 10}
	for _, tc := range []struct {
		pts []geom.Point
		ok  bool
	}{
		{[]geom.Point{{X: 1, Y: 9}, {X: 2, Y: 5}}, true},
		{[]geom.Point{{X: 1, Y: 5}, {X: 2, Y: 9}}, false},  // y rises
		{[]geom.Point{{X: 2, Y: 9}, {X: 2, Y: 5}}, false},  // x repeats
		{[]geom.Point{{X: 1, Y: 11}, {X: 2, Y: 5}}, false}, // outside
	} {
		if err := checkStaircase(tc.pts, r); (err == nil) != tc.ok {
			t.Errorf("checkStaircase(%v) = %v, want ok=%v", tc.pts, err, tc.ok)
		}
	}
}
