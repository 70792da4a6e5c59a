package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	neturl "net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cardpi/internal/codec"
	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

// loadgenSummary is one load run's JSON record: throughput, request-latency
// quantiles, and the knobs that produced them — enough to replay the run.
type loadgenSummary struct {
	Addr        string  `json:"addr"`
	Dist        string  `json:"dist"`
	ZipfS       float64 `json:"zipf_s,omitempty"`
	Universe    int     `json:"universe"`
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"batch"`
	Format      string  `json:"format"`
	DurationSec float64 `json:"duration_sec"`
	Requests    int64   `json:"requests"`
	Queries     int64   `json:"queries"`
	Errors      int64   `json:"errors"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// loadgenReport is the full output: the target run plus, in compare mode,
// the baseline run and the headline queries/sec ratio.
type loadgenReport struct {
	Target   loadgenSummary  `json:"target"`
	Baseline *loadgenSummary `json:"baseline,omitempty"`
	Speedup  float64         `json:"speedup_qps,omitempty"`
}

// runLoadgen implements `cardpi loadgen`: a closed-loop HTTP load harness
// that replays a generated query universe against a running `cardpi serve`
// under a configurable popularity distribution — Zipfian by default, the
// shape that makes an interval cache pay — and reports sustained qps plus
// latency quantiles. With -baseline-addr it runs the identical workload
// against a second server first and reports the qps ratio, which is how
// BENCH_serve.json records the cache-on vs cache-off speedup.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("cardpi loadgen", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "target server (host:port) running `cardpi serve`")
		baseline = fs.String("baseline-addr", "", "optional second server; run the identical workload there first and report target/baseline qps")
		dsName   = fs.String("dataset", "dmv", "dataset the server tables were built from: dmv | census | forest | power")
		rows     = fs.Int("rows", 20000, "dataset rows (must match the server's -rows so queries parse)")
		universe = fs.Int("universe", 1000, "distinct queries in the replayed universe")
		seed     = fs.Int64("seed", 1, "random seed for the universe and the popularity draws")
		dist     = fs.String("dist", "zipf", "query popularity: zipf | uniform")
		zipfS    = fs.Float64("zipf-s", 1.1, "Zipf exponent (>1); higher = hotter head")
		conc     = fs.Int("concurrency", 8, "concurrent client workers")
		duration = fs.Duration("duration", 5*time.Second, "measured run length per server")
		warmup   = fs.Duration("warmup", 500*time.Millisecond, "unmeasured warm-up before each run")
		batch    = fs.Int("batch", 0, "queries per request: 0 = single GET /estimate, N>0 = POST /estimate/batch of N")
		format   = fs.String("format", "json", "batch wire format: json | wire (binary)")
		outPath  = fs.String("out", "", "write the JSON report here as well as stdout")
		minSpeed = fs.Float64("min-speedup", 0, "with -baseline-addr: exit nonzero when target/baseline qps is below this")
	)
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "usage: %s loadgen [flags]\n\n", os.Args[0])
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *universe < 2 {
		return fmt.Errorf("-universe must be at least 2")
	}
	if *dist != "zipf" && *dist != "uniform" {
		return fmt.Errorf("unknown -dist %q (want zipf or uniform)", *dist)
	}
	if *dist == "zipf" && *zipfS <= 1 {
		return fmt.Errorf("-zipf-s must be > 1 (got %v)", *zipfS)
	}
	wire := false
	switch strings.ToLower(*format) {
	case "json":
	case "wire", "binary":
		wire = true
	default:
		return fmt.Errorf("unknown -format %q (want json or wire)", *format)
	}
	if wire && *batch <= 0 {
		return fmt.Errorf("-format wire requires -batch > 0 (the single endpoint is JSON-only)")
	}

	lines, err := loadgenUniverse(*dsName, *rows, *universe, *seed)
	if err != nil {
		return err
	}
	logStderr("universe: %d distinct queries over %s (%s popularity)", len(lines), *dsName, *dist)

	cfg := loadgenConfig{
		lines: lines, dist: *dist, zipfS: *zipfS, seed: *seed,
		conc: *conc, duration: *duration, warmup: *warmup,
		batch: *batch, wire: wire,
	}
	report := loadgenReport{}
	if *baseline != "" {
		logStderr("baseline run against %s ...", *baseline)
		base, err := cfg.run(*baseline)
		if err != nil {
			return fmt.Errorf("baseline run: %w", err)
		}
		report.Baseline = &base
	}
	logStderr("target run against %s ...", *addr)
	report.Target, err = cfg.run(*addr)
	if err != nil {
		return fmt.Errorf("target run: %w", err)
	}
	if report.Baseline != nil && report.Baseline.QPS > 0 {
		report.Speedup = report.Target.QPS / report.Baseline.QPS
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	os.Stdout.Write(out)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			return err
		}
		logStderr("report written to %s", *outPath)
	}
	if *minSpeed > 0 {
		if report.Baseline == nil {
			return fmt.Errorf("-min-speedup needs -baseline-addr")
		}
		if report.Speedup < *minSpeed {
			return fmt.Errorf("speedup %.2fx below the required %.2fx", report.Speedup, *minSpeed)
		}
		logStderr("speedup %.2fx >= required %.2fx", report.Speedup, *minSpeed)
	}
	return nil
}

// loadgenUniverse regenerates the server's table deterministically and
// renders a workload over it as canonical query text — the same grammar the
// serve endpoints parse, so every request is answerable, with predicates in
// canonical order, so a cached query is answered by the text probe without
// a parse. The workload seed is
// offset from the table seed so the universe never coincides with the
// server's own training/calibration split.
func loadgenUniverse(dsName string, rows, universe int, seed int64) ([]string, error) {
	gen := map[string]func(dataset.GenConfig) (*dataset.Table, error){
		"dmv": dataset.GenerateDMV, "census": dataset.GenerateCensus,
		"forest": dataset.GenerateForest, "power": dataset.GeneratePower,
	}[dsName]
	if gen == nil {
		return nil, fmt.Errorf("unknown -dataset %q", dsName)
	}
	tab, err := gen(dataset.GenConfig{Rows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	wl, err := workload.Generate(tab, workload.Config{Count: universe, Seed: seed + 7919, MinPreds: 1, MaxPreds: 3})
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(wl.Queries))
	seen := make(map[string]bool, len(wl.Queries))
	for _, lq := range wl.Queries {
		line := workload.QueryText(workload.Canonicalize(lq.Query))
		if line == "" || seen[line] {
			continue
		}
		seen[line] = true
		lines = append(lines, line)
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("universe collapsed to %d distinct queries", len(lines))
	}
	return lines, nil
}

// loadgenConfig is one run's immutable parameters.
type loadgenConfig struct {
	lines    []string
	dist     string
	zipfS    float64
	seed     int64
	conc     int
	duration time.Duration
	warmup   time.Duration
	batch    int
	wire     bool
}

// picker returns a per-worker popularity sampler. Each worker gets its own
// seeded source — deterministic per (seed, worker) and contention-free.
func (c loadgenConfig) picker(worker int) func() int {
	rng := rand.New(rand.NewSource(c.seed + int64(worker)*104729))
	if c.dist == "uniform" {
		return func() int { return rng.Intn(len(c.lines)) }
	}
	z := rand.NewZipf(rng, c.zipfS, 1, uint64(len(c.lines)-1))
	return func() int { return int(z.Uint64()) }
}

// run drives one closed loop against addr: conc workers each issue requests
// back-to-back until the deadline, recording per-request latency. The
// baseline and target runs use identical pickers, so both servers see the
// same query popularity.
func (c loadgenConfig) run(addr string) (loadgenSummary, error) {
	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	// One probe so a dead server fails fast with a clear error.
	if resp, err := client.Get(base + "/healthz"); err != nil {
		return loadgenSummary{}, fmt.Errorf("server %s unreachable: %w", addr, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var (
		wg       sync.WaitGroup
		requests atomic.Int64
		queries  atomic.Int64
		errs     atomic.Int64
		mu       sync.Mutex
		lats     []float64
		firstErr atomic.Value
	)
	warmDone := time.Now().Add(c.warmup)
	deadline := warmDone.Add(c.duration)
	for w := 0; w < c.conc; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pick := c.picker(worker)
			local := make([]float64, 0, 4096)
			body := make([]byte, 0, 64*1024)
			batchQ := make([]string, 0, c.batch)
			for {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				start := now
				n, err := c.issue(client, base, pick, &batchQ, &body)
				if err != nil {
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				if start.Before(warmDone) {
					continue // warm-up traffic: primed caches, not counted
				}
				requests.Add(1)
				queries.Add(int64(n))
				local = append(local, float64(time.Since(start).Microseconds())/1000)
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if e, ok := firstErr.Load().(error); ok && requests.Load() == 0 {
		return loadgenSummary{}, fmt.Errorf("no successful requests (first error: %w)", e)
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	s := loadgenSummary{
		Addr: addr, Dist: c.dist, Universe: len(c.lines),
		Concurrency: c.conc, Batch: c.batch,
		Format:      map[bool]string{false: "json", true: "wire"}[c.wire],
		DurationSec: c.duration.Seconds(),
		Requests:    requests.Load(), Queries: queries.Load(), Errors: errs.Load(),
		QPS:   float64(queries.Load()) / c.duration.Seconds(),
		P50Ms: q(0.50), P95Ms: q(0.95), P99Ms: q(0.99),
	}
	if c.dist == "zipf" {
		s.ZipfS = c.zipfS
	}
	return s, nil
}

// issue sends one request — a single GET or a batch POST in the configured
// wire format — and returns how many queries it answered.
func (c loadgenConfig) issue(client *http.Client, base string, pick func() int, batchQ *[]string, body *[]byte) (int, error) {
	if c.batch <= 0 {
		resp, err := client.Get(base + "/estimate?q=" + neturl.QueryEscape(c.lines[pick()]))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("/estimate status %d", resp.StatusCode)
		}
		return 1, nil
	}
	*batchQ = (*batchQ)[:0]
	for i := 0; i < c.batch; i++ {
		*batchQ = append(*batchQ, c.lines[pick()])
	}
	var reqBody []byte
	contentType := "application/json"
	if c.wire {
		*body = codec.AppendWireRequest((*body)[:0], *batchQ)
		reqBody = *body
		contentType = codec.WireContentType
	} else {
		var err error
		reqBody, err = json.Marshal(batchRequest{Queries: *batchQ})
		if err != nil {
			return 0, err
		}
	}
	resp, err := client.Post(base+"/estimate/batch", contentType, bytes.NewReader(reqBody))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/estimate/batch status %d", resp.StatusCode)
	}
	return len(*batchQ), nil
}
