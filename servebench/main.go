// Command servebench is the repository's serve benchmark. One run boots a
// fresh `cardpi serve` child process, sends it a fixed, seeded request
// schedule over closed-loop keep-alive clients, checks every reply, and
// prints one JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics from a /metrics diff and an in-process traced replay.
//
//	bash servebench/run.sh --workload miss|hot|churn --seed N --seconds S --trace 0|1
//
// run.sh builds both binaries from the checkout and passes -cardpi and
// -work. See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cardpi/internal/dataset"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// The serving configuration every workload shares: the server's defaults
// for everything not listed, recalibration off so no chain swap happens
// mid-run.
const (
	dsName        = "dmv"
	rows          = 20000
	trainQueries  = 2000
	dataSeed      = 1
	alpha         = 0.1
	monitorWindow = 2000            // serve -window default
	serveTimeout  = 2 * time.Second // serve -timeout default
	// coverageTol is how far below 1-alpha the coverage of the distinct
	// queries a run sent may fall before the run fails.
	coverageTol = 0.05
	// roundsPerSecond is how many consecutive rounds per --seconds the
	// timed schedule is sent in; the end-to-end rates, latencies and CPU
	// come from the rounds during which the hypervisor stole at most
	// quietSteal% of the CPU, or if they are fewer than a quarter of all
	// rounds, from the quarter that saw the least steal.
	roundsPerSecond = 4
	// clients is the number of closed-loop clients, each on its own
	// keep-alive connection. One client keeps the server's handler time
	// free of CPU contention with a second request on a 2-vCPU host, so
	// the traced replay can account for it.
	clients = 1
	// setupRuns is how many times a run boots the server; setup_s is the
	// median, and the last boot serves the load.
	setupRuns = 5
)

// spec is one workload: the server it boots and the traffic it sends.
type spec struct {
	model, method string
	cacheEntries  int
	artifact      bool    // serve a .cpi trained by `cardpi train` before the clock
	batch         int     // rows per binary POST /estimate/batch; 0 = GET /estimate (JSON)
	universe      int     // distinct queries
	zipfS         float64 // 0 = uniform popularity
	fillWarm      bool    // warm phase sends the whole universe first
	warmRequests  int     // further untimed requests before the timed phase
	perSecond     int     // timed requests per --seconds
	replayN       int     // timed requests the traced replay serves
}

var specs = map[string]*spec{
	// Every request runs the whole miss path: interval, ground truth,
	// monitor. Cache, codec and batching sit idle.
	"miss": {
		model: "mscn", method: "lcp", universe: 20000,
		warmRequests: 1000, perSecond: 1100, replayN: 1500,
	},
	// At least 99% cache hits in 64-row binary batches: the cost sits in
	// HTTP, parsing, cache key/probe, monitor reads, codec and the bundle
	// loader; estimator and dataset work are nearly absent.
	"hot": {
		model: "mscn", method: "lcp", cacheEntries: 4096, artifact: true, batch: 64,
		universe: 1000, zipfS: 1.1, fillWarm: true, warmRequests: 1000,
		perSecond: 2000, replayN: 400,
	},
	// A cache much smaller than the Zipf working set: fills, inserts and
	// evictions next to hits, on the single-query cached path and a
	// second model family.
	"churn": {
		model: "histogram", method: "s-cp", cacheEntries: 512, universe: 20000, zipfS: 1.1,
		warmRequests: 5000, perSecond: 4000, replayN: 5000,
	},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"server_cpu_us_per_query", "us"},
	{"server_rss_mb", "MiB"},
	{"success_rate", "ratio"},
	{"coverage", "ratio"},
	{"width_sel_mean", "sel"},
}

var perLayer = []metricDef{
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.self_us", "us"},
	{"serve.shed", "count"},
	{"workload.parse_us", "us"},
	{"cache.key_us", "us"},
	{"cache.probe_us", "us"},
	{"cache.fill_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_kq", "1/kq"},
	{"cache.coalesced", "count"},
	{"resilient.self_us", "us"},
	{"resilient.fallback_ratio", "ratio"},
	{"pi.interval_us", "us"},
	{"conformal.band_us", "us"},
	{"model.forward_us", "us"},
	{"model.forwards_per_query", "count"},
	{"dataset.count_us", "us"},
	{"dataset.counts_per_query", "count"},
	{"monitor.observe_us", "us"},
	{"monitor.read_us", "us"},
	{"monitor.observations", "count"},
	{"monitor.dropped", "count"},
	{"codec.decode_us", "us"},
	{"codec.encode_us", "us"},
	{"pipeline.table_s", "s"},
	{"pipeline.workloads_s", "s"},
	{"pipeline.train_s", "s"},
	{"pipeline.calibrate_s", "s"},
	{"pipeline.load_bundle_s", "s"},
	{"trace.accounted_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"host.steal_pct", "%"},
	{"client.cpu_us_per_query", "us"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "miss | hot | churn")
		seed    = fs.Int64("seed", 1, "schedule seed: the query universe and the request order")
		seconds = fs.Int("seconds", 10, "scales the fixed timed schedule to about this many seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		bin     = fs.String("cardpi", "", "path to the cardpi binary")
		work    = fs.String("work", "", "directory for server logs, artifacts and span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := specs[*name]
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 || *bin == "" || *work == "" {
		fmt.Fprintf(stderr, "servebench: need -workload miss|hot|churn, -seconds >= 1, -trace 0|1, -cardpi and -work\n")
		return 2
	}
	b := &bench{name: *name, w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work, out: stdout}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %s seed %d: %v\n", *name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state.
type bench struct {
	name    string
	w       *spec
	seed    int64
	seconds int
	trace   bool
	bin     string
	work    string
	out     io.Writer

	failures []string
	diag     map[string]any
}

// fail records a check that failed; the run still reports its metrics.
func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	b.diag = map[string]any{"workload": b.name, "seed": b.seed}
	tab, err := pipeline.BuildTable(dsName, "", rows, dataSeed, nil)
	if err != nil {
		return nil, err
	}
	sch, err := newSchedule(tab, b.w, b.seed, b.seconds*b.w.perSecond)
	if err != nil {
		return nil, err
	}
	args, artifact, err := b.serverArgs()
	if err != nil {
		return nil, err
	}

	// Boot setupRuns times; the last server takes the load.
	mp := newMemProbe()
	var setups, bootLoads []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		bootLoads = append(bootLoads, mp.loadNs())
		log := filepath.Join(b.work, fmt.Sprintf("%s-seed%d-boot%d.log", b.name, b.seed, i))
		s, ready, err := startServer(b.bin, log, args)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ready.Seconds())
		if i < setupRuns-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop boot %d: %w; log: %s", i, err, s.log)
			}
			os.Remove(s.log)
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	pid := srv.cmd.Process.Pid
	ld := newLoader(sch, srv.addr, clients)
	bk := newBook(len(sch.lines))
	warm := ld.run(sch.warm, bk)
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	// The timed schedule runs in short consecutive rounds after one wait
	// for a quiet host. Hypervisor steal comes in bursts from a fraction of
	// a second to minutes long; throughput, latency and server CPU are
	// pooled over the rounds with little steal (see roundsPerSecond).
	// Rounds are chosen by steal, not by the metric, so a real slowdown
	// shows in every round chosen.
	type round struct {
		steal float64
		p     phase
		cpu   time.Duration
		load  float64 // memProbe ns per load, just before the round
	}
	b.diag["quiet_steal_pct"] = waitQuiet(srv.addr, time.Now().Add(quietWait))
	var rs []round
	var timed phase
	var host hostCPU // summed over the rounds
	var clientCPU time.Duration
	n := sch.requests(sch.timed)
	nr := b.seconds * roundsPerSecond
	for r := 0; r < nr; r++ {
		load := mp.loadNs()
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		h0, self0 := readHostCPU(), selfCPU()
		part := sch.timed[r*n/nr*sch.batch : (r+1)*n/nr*sch.batch]
		p := ld.run(part, bk)
		self1, h1 := selfCPU(), readHostCPU()
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		clientCPU += self1 - self0
		host.total += h1.total - h0.total
		host.steal += h1.steal - h0.steal
		rs = append(rs, round{steal: stealPct(h0, h1), p: p, cpu: cpu1 - cpu0, load: load})
		timed.add(p)
	}
	roundSteal, roundQPS, roundLoad := make([]float64, len(rs)), make([]float64, len(rs)), make([]float64, len(rs))
	for i, r := range rs {
		roundSteal[i], roundQPS[i], roundLoad[i] = r.steal, float64(r.p.rows)/r.p.wall.Seconds(), r.load
	}
	b.diag["round_steal_pct"], b.diag["round_qps"], b.diag["round_load_ns"] = roundSteal, roundQPS, roundLoad
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].steal < rs[j].steal })
	k := max(1, len(rs)/4)
	for k < len(rs) && rs[k].steal <= quietSteal {
		k++
	}
	b.diag["quiet_rounds"] = k
	var quiet phase
	var quietCPU time.Duration
	var loads []float64
	for _, r := range rs[:k] {
		quiet.add(r.p)
		quietCPU += r.cpu
		loads = append(loads, r.load)
	}
	sort.Float64s(quiet.lat)
	// Timings are scaled to a host whose memory loads take refLoadNs.
	scale, bootScale := refLoadNs/median(loads), refLoadNs/median(bootLoads)
	raw := map[string]float64{
		"throughput_qps":          float64(quiet.rows) / quiet.wall.Seconds(),
		"latency_p50_ms":          quantile(quiet.lat, 0.50) / 1e3,
		"setup_s":                 median(setups),
		"server_cpu_us_per_query": float64(quietCPU.Microseconds()) / float64(quiet.rows),
	}
	b.diag["unscaled"] = raw
	b.diag["load_ns"] = []float64{median(bootLoads), median(loads)}
	steal := stealPct(hostCPU{}, host)
	clientUs := float64(clientCPU.Microseconds()) / float64(timed.rows)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	hwm, err := procHWM(pid)
	if err != nil {
		return nil, err
	}
	ld.close()
	stopped = true
	if err := srv.stop(); err != nil {
		b.fail("server shutdown: %v", err)
	}
	d := diff(before, after)

	for _, p := range []phase{warm, timed} {
		if p.failed > 0 {
			b.fail("%d of %d requests failed, first: %v", p.failed, p.requests, p.firstErr)
		}
		if p.notPrimary > 0 {
			b.fail("%d rows answered by a fallback stage", p.notPrimary)
		}
	}
	if bk.mismatch > 0 {
		b.fail("%d repeated replies differ from the first reply for their query", bk.mismatch)
	}
	b.reconcile(d, timed)
	coverage, width, distinct := b.coverage(tab, sch, bk)

	sort.Float64s(timed.lat)
	m := map[string]float64{
		"throughput_qps":          raw["throughput_qps"] / scale,
		"latency_p50_ms":          raw["latency_p50_ms"] * scale,
		"setup_s":                 raw["setup_s"] * bootScale,
		"server_cpu_us_per_query": raw["server_cpu_us_per_query"] * scale,
		"server_rss_mb":           hwm,
		"success_rate":            1 - float64(timed.failed)/float64(timed.requests),
		"coverage":                coverage,
		"width_sel_mean":          width,
	}
	b.diag["timed_requests"] = timed.requests
	b.diag["timed_rows"] = timed.rows
	b.diag["timed_wall_s"] = timed.wall.Seconds()
	b.diag["latency_samples"] = len(timed.lat)
	b.diag["quiet_latency_samples"] = len(quiet.lat)
	b.diag["latency_p90_ms"] = quantile(quiet.lat, 0.90) / 1e3 * scale
	b.diag["latency_p99_ms"] = quantile(timed.lat, 0.99) / 1e3
	b.diag["setup_runs_s"] = setups
	b.diag["distinct_queries"] = distinct
	b.diag["host_steal_pct"] = steal
	b.diag["loadavg"] = loadAvg()
	b.diag["bench_cpu_s"] = selfCPU().Seconds()
	b.diag["client_cpu_us_per_query"] = clientUs

	defs := endToEnd
	if b.trace {
		defs = perLayer
		layers, err := b.layers(sch, bk, d, timed, artifact)
		if err != nil {
			return nil, err
		}
		m = layers
		m["host.steal_pct"] = steal
		m["client.cpu_us_per_query"] = clientUs
	}
	res := &result{Attempted: timed.requests, Failed: timed.failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", def.name)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	res.Correct = len(b.failures) == 0
	b.diag["failures"] = b.failures
	diag, _ := json.Marshal(b.diag)
	fmt.Fprintf(b.out, "diag %s\n", diag)
	if res.Correct {
		os.Remove(srv.log)
	} else {
		fmt.Fprintf(b.out, "server log kept: %s\n", srv.log)
	}
	return res, nil
}

// serverArgs returns the `cardpi serve` flags of the workload, training the
// artifact first (outside every clock) when the workload serves one.
func (b *bench) serverArgs() (args []string, artifact string, err error) {
	w := b.w
	if w.artifact {
		artifact = filepath.Join(b.work, fmt.Sprintf("%s-%s-%s.cpi", b.name, w.model, w.method))
		cmd := exec.Command(b.bin, "train", "-dataset", dsName, "-rows", fmt.Sprint(rows),
			"-model", w.model, "-method", w.method, "-alpha", fmt.Sprint(alpha),
			"-queries", fmt.Sprint(trainQueries), "-seed", fmt.Sprint(dataSeed), "-out", artifact)
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, "", fmt.Errorf("cardpi train: %v\n%s", err, out)
		}
		args = []string{"-artifact", artifact}
	} else {
		args = []string{"-dataset", dsName, "-rows", fmt.Sprint(rows), "-alpha", fmt.Sprint(alpha),
			"-queries", fmt.Sprint(trainQueries), "-seed", fmt.Sprint(dataSeed)}
	}
	args = append(args, "-model", w.model, "-method", w.method, "-recal=false",
		"-cache-entries", fmt.Sprint(w.cacheEntries))
	return args, artifact, nil
}

// reconcile checks the timed phase's /metrics diff against what the
// benchmark sent. A mismatch means the workload did not do what it claims.
func (b *bench) reconcile(d samples, timed phase) {
	rows := float64(timed.rows)
	okReqs := d.sum("cardpi_serve_requests_total", `class="ok"`) + d.sum("cardpi_serve_batch_requests_total", `class="ok"`)
	if okReqs != float64(timed.requests-timed.failed) {
		b.fail("server counted %v ok requests, client %d", okReqs, timed.requests-timed.failed)
	}
	if shed := d.sum("cardpi_serve_shed_total"); shed != 0 {
		b.fail("%v requests shed", shed)
	}
	computed := rows
	if b.w.cacheEntries > 0 {
		hits, misses := d.sum("cardpi_cache_hits_total"), d.sum("cardpi_cache_misses_total")
		if hits+misses != rows {
			b.fail("cache hits %v + misses %v != %v rows sent", hits, misses, rows)
		}
		computed = misses - d.sum("cardpi_cache_coalesced_total")
	}
	if obs := d.sum("cardpi_adaptive_observations_total"); obs != computed {
		b.fail("monitor observations %v != %v computed rows", obs, computed)
	}
	if dropped := d.sum("cardpi_adaptive_dropped_observations_total"); dropped != 0 {
		b.fail("monitor dropped %v observations", dropped)
	}
	served, primary := d.sum("cardpi_resilient_served_total"), d.sum("cardpi_resilient_served_total", `stage="0"`)
	if served != primary || served != d.sum("cardpi_resilient_calls_total") {
		b.fail("resilient served %v rows, %v by the primary, of %v calls", served, primary, d.sum("cardpi_resilient_calls_total"))
	}
}

// coverage counts true rows for every distinct query the run sent, with
// dataset.Table.Count on the benchmark's own copy of the table, and returns
// the share whose row interval holds the count, the mean selectivity
// width, and the number of queries. It fails the run below 1-alpha-tol.
func (b *bench) coverage(tab *dataset.Table, sch *schedule, bk *book) (cov, width float64, n int) {
	var idx []int
	for i, ok := range bk.seen {
		if ok {
			idx = append(idx, i)
		}
	}
	covered := make([]bool, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	const workers = 2
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := k; j < len(idx); j += workers {
				q, err := workload.ParseQuery(tab, sch.lines[idx[j]])
				if err != nil {
					errs[j] = err
					continue
				}
				truth, err := tab.Count(q.Preds)
				if err != nil {
					errs[j] = err
					continue
				}
				a, t := bk.first[idx[j]], float64(truth)
				covered[j] = t >= a.loRows && t <= a.hiRows
			}
		}(k)
	}
	wg.Wait()
	var hit int
	for j, i := range idx {
		if errs[j] != nil {
			b.fail("count %q: %v", sch.lines[i], errs[j])
		}
		if covered[j] {
			hit++
		}
		width += bk.first[i].hi - bk.first[i].lo
	}
	if len(idx) == 0 {
		b.fail("no query answered")
		return 0, 0, 0
	}
	cov, width = float64(hit)/float64(len(idx)), width/float64(len(idx))
	if cov < 1-alpha-coverageTol {
		b.fail("coverage %.4f below %.2f", cov, 1-alpha-coverageTol)
	}
	return cov, width, len(idx)
}

// layers computes the per-layer metrics: the /metrics diff of the timed
// phase, plus an untraced and a traced in-process replay of the schedule.
func (b *bench) layers(sch *schedule, bk *book, d samples, timed phase, artifact string) (map[string]float64, error) {
	rs, err := buildReplay(b.w)
	if err != nil {
		return nil, err
	}
	loadBundle := 0.0
	if artifact != "" {
		var loads []float64
		for i := 0; i < setupRuns; i++ {
			s, err := loadBundleSeconds(artifact)
			if err != nil {
				return nil, err
			}
			loads = append(loads, s)
		}
		loadBundle = median(loads)
	}
	// Three replays each way, alternating, and the fastest of each: the
	// overhead estimate then compares like with like despite host noise.
	n := min(b.w.replayN, sch.requests(sch.timed))
	var plain, traced replayResult
	for i := 0; i < 3; i++ {
		p, err := replay(rs, b.w, sch, n, false, bk)
		if err != nil {
			return nil, err
		}
		t, err := replay(rs, b.w, sch, n, true, bk)
		if err != nil {
			return nil, err
		}
		if i == 0 || p.wall < plain.wall {
			plain = p
		}
		if i == 0 || t.wall < traced.wall {
			traced = t
		}
	}
	if err := writeSpans(filepath.Join(b.work, fmt.Sprintf("spans-%s-seed%d.jsonl", b.name, b.seed)), traced.spans); err != nil {
		return nil, err
	}
	st := aggregate(traced.spans)

	reqs := d.sum("cardpi_serve_request_seconds_count") + d.sum("cardpi_serve_batch_request_seconds_count")
	handlerUs := 1e6 * (d.sum("cardpi_serve_request_seconds_sum") + d.sum("cardpi_serve_batch_request_seconds_sum")) / reqs
	var clientUs float64
	for _, l := range timed.lat {
		clientUs += l
	}
	clientUs /= float64(len(timed.lat))
	var selfNs int64
	for l := layer(0); l < numLayers; l++ {
		selfNs += st.selfNs[l]
	}
	rows := float64(traced.rows)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := d.sum("cardpi_cache_hits_total"), d.sum("cardpi_cache_misses_total")
	resCalls := d.sum("cardpi_resilient_calls_total")
	m := map[string]float64{
		"serve.handler_us":         handlerUs,
		"serve.transport_us":       clientUs - handlerUs,
		"serve.self_us":            st.selfPerCallUs(lServe),
		"serve.shed":               d.sum("cardpi_serve_shed_total"),
		"workload.parse_us":        st.selfPerCallUs(lParse),
		"cache.key_us":             st.selfPerCallUs(lKey),
		"cache.probe_us":           st.selfPerCallUs(lProbe),
		"cache.fill_us":            st.selfPerCallUs(lFill),
		"cache.hit_ratio":          ratio(hits, hits+misses),
		"cache.evictions_per_kq":   1e3 * d.sum("cardpi_cache_evictions_total") / float64(timed.rows),
		"cache.coalesced":          d.sum("cardpi_cache_coalesced_total"),
		"resilient.self_us":        st.selfPerCallUs(lResilient),
		"resilient.fallback_ratio": ratio(resCalls-d.sum("cardpi_resilient_served_total", `stage="0"`), resCalls),
		"pi.interval_us":           st.totalPerCallUs(lPI),
		"conformal.band_us":        st.selfPerCallUs(lPI),
		"model.forward_us":         st.selfPerCallUs(lModel),
		"model.forwards_per_query": float64(st.calls[lModel]) / rows,
		"dataset.count_us":         st.selfPerCallUs(lCount),
		"dataset.counts_per_query": float64(st.calls[lCount]) / rows,
		"monitor.observe_us":       st.selfPerCallUs(lObserve),
		"monitor.read_us":          st.selfPerCallUs(lRead),
		"monitor.observations":     d.sum("cardpi_adaptive_observations_total"),
		"monitor.dropped":          d.sum("cardpi_adaptive_dropped_observations_total"),
		"codec.decode_us":          st.selfPerCallUs(lDecode),
		"codec.encode_us":          st.selfPerCallUs(lEncode),
		"pipeline.table_s":         rs.tableS,
		"pipeline.workloads_s":     rs.workloadsS,
		"pipeline.train_s":         rs.trainS,
		"pipeline.calibrate_s":     rs.calibrateS,
		"pipeline.load_bundle_s":   loadBundle,
		"trace.accounted_pct":      100 * float64(selfNs) / float64(traced.requests) / 1e3 / handlerUs,
		"trace.overhead_pct":       100 * (traced.wall.Seconds()/plain.wall.Seconds() - 1),
	}
	// Where one query's server time goes, by layer self time.
	share := map[string]string{}
	for l := layer(0); l < numLayers; l++ {
		share[layerNames[l]] = fmt.Sprintf("%.2fus %.1f%%", float64(st.selfNs[l])/rows/1e3, 100*float64(st.selfNs[l])/float64(selfNs))
	}
	b.diag["replay_requests"] = traced.requests
	b.diag["replay_self_per_query"] = share
	b.diag["replay_wall_s"] = []float64{plain.wall.Seconds(), traced.wall.Seconds()}
	return m, nil
}

// quantile returns the nearest-rank p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
