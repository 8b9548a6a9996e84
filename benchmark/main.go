// Command benchmark is the repository's end-to-end benchmark. It seeds
// a durable skylined namespace, serves it over loopback HTTP and drives
// it with one of two seeded closed-loop workloads (hot-read,
// write-mix), checking every answer. The untraced run
// (--trace 0) prints the end-to-end metrics; the traced run (--trace 1)
// prints the per-layer metrics, measured from outside the program by a
// handler middleware, a counting filesystem, /stats deltas and a
// single-client replay of the op stream against each layer's public
// entry point. The last line of standard output is one JSON object; a
// wrong answer or a lost acknowledged write exits non-zero.
//
// Usage (from the repository root, see README.md):
//
//	bash benchmark/run.sh --workload hot-read --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run seeds and reopens a namespace;
// setup_s is their median.
const setups = 5

// config fixes one run.
type config struct {
	w       workload
	seed    int64
	seconds time.Duration
	n, pool int
	replay  int    // ops in each single-client replay (traced runs)
	tmp     string // scratch directory, removed at exit
	outDir  string // where the traced run writes its spans
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed above the result line, not part of it.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: hot-read or write-mix")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 40, "length of the measured window")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	workdir := flag.String("workdir", ".bench_build/work", "scratch and trace output directory")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := config{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		n: baseN, pool: poolN, replay: replayOps,
		tmp: tmp, outDir: *workdir,
	}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = plainRun(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// warmup is the untimed lead-in: the cache fills and the lazy paths
// settle before the window opens.
func warmup(total time.Duration) time.Duration {
	return min(2*time.Second, total/10)
}

// setupService seeds and reopens the namespace setups times, keeping the
// last service; it returns the median setup time.
func setupService(d *dataset, cfg config) (*service, float64, error) {
	var times []float64
	var svc *service
	for i := 0; i < setups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, 0, err
			}
			os.RemoveAll(svc.dir)
		}
		s, t, err := startService(d, cfg.tmp, nil, nil)
		if err != nil {
			return nil, 0, err
		}
		svc = s
		times = append(times, t.total.Seconds())
	}
	return svc, median(times), nil
}

// plainRun is the untraced run: the end-to-end metrics.
func plainRun(cfg config) (*result, error) {
	d := newDataset(cfg.w, cfg.seed, cfg.n, cfg.pool)
	svc, setup, err := setupService(d, cfg)
	if err != nil {
		return nil, err
	}
	// Every run starts its load from a collected heap: the discarded
	// set-up builds would otherwise skew the first GC cycles.
	runtime.GC()
	streams := d.streams(clients)
	ab := &abort{}
	runLoad(svc, streams, warmup(cfg.seconds), nil, ab)

	before, err := svc.stats()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lr := runLoad(svc, streams, cfg.seconds, nil, ab)
	runtime.ReadMemStats(&m1)
	after, err := svc.stats()
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: lr.attempted, Failed: lr.failed}
	finish(res, svc, d, streams, ab)
	sum := summarize(lr)
	ops := float64(lr.completed())
	res.set("throughput_ops_s", sum.throughput, "1/s")
	res.set("read_p50_us", sum.read.p50, "us")
	res.set("read_p99_us", sum.read.p99, "us")
	res.set("write_p50_us", sum.write.p50, "us")
	res.set("write_p99_us", sum.write.p99, "us")
	res.set("ios_per_op", ratio(float64(after.IOs-before.IOs), ops), "ios/op")
	res.set("allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), ops), "allocs/op")
	res.set("success_rate", ratio(ops, float64(lr.attempted)), "ratio")
	res.set("setup_s", setup, "s")
	res.note("workload %s seed %d: %d ops in %.2fs, %d failed; read p50/p99 over %d samples, write p50/p99 over %d samples",
		cfg.w.name, cfg.seed, lr.completed(), lr.elapsed.Seconds(), lr.failed, sum.read.n, sum.write.n)
	res.note("throughput per slice: %.0f", sum.rates)
	res.note("gc: %d cycles in the window, %.1f ms paused, heap %d MB", m1.NumGC-m0.NumGC, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, m1.HeapAlloc>>20)
	return res, nil
}

// finish runs the post-window checks — the oracle sample and Len on
// the live namespace, then a graceful close, a reopen and the lost-ack
// check — and marks res incorrect on any failure, including a wrong
// answer caught inside the timed loop. It returns how long the graceful
// close (queue drain plus checkpoint) took.
func finish(res *result, svc *service, d *dataset, streams []*stream, ab *abort) time.Duration {
	fail := func(err error) {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", err)
	}
	if ab.set.Load() {
		fail(ab.err)
	}
	e := expect(streams)
	if err := verifyLive(svc, d, e); err != nil {
		fail(err)
	}
	t0 := time.Now()
	if err := svc.stop(); err != nil {
		fail(fmt.Errorf("graceful close: %w", err))
		return 0
	}
	closed := time.Since(t0)
	if err := verifyDurable(svc.dir, e); err != nil {
		fail(err)
	}
	if n := len(e.unknown); n > 0 {
		res.note("%d writes failed; their points were left out of the checks", n)
	}
	res.note("checks: %d oracle queries, len, %d acknowledged writes after reopen", oracleQueries, len(e.written))
	return closed
}
