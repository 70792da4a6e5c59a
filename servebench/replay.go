package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"time"

	"cardpi"
	"cardpi/internal/cache"
	"cardpi/internal/codec"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/histogram"
	"cardpi/internal/obs"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// The traced replay sends the schedule through the same public functions
// `cardpi serve` calls for /estimate and /estimate/batch (cmd/cardpi/serve.go:
// handleEstimate, serveCached, computeResult, render, handleEstimateBatch),
// in-process and on one goroutine, with a span around each layer's calls.
// It is a mirror of the handler, not the handler: cmd/cardpi is a main
// package. Each replayed reply is checked bit for bit against what the
// server answered, so a mirror that drifts from the server fails the run.

// slot holds the tracer of the replay in progress (nil: untraced). The
// decorators below share it with the unit they serve.
type slot struct{ tr *tracer }

// spanModel is an Estimator decorator: one model.forward span per call,
// with the batch size as the span's call count.
type spanModel struct {
	inner cardpi.Estimator
	s     *slot
}

func (m *spanModel) Name() string { return m.inner.Name() }

func (m *spanModel) EstimateSelectivity(q workload.Query) float64 {
	m.s.tr.begin(lModel, 1)
	v := m.inner.EstimateSelectivity(q)
	m.s.tr.end()
	return v
}

func (m *spanModel) EstimateSelectivityBatch(qs []workload.Query, out []float64) {
	m.s.tr.begin(lModel, len(qs))
	estimator.EstimateBatch(m.inner, qs, out)
	m.s.tr.end()
}

// spanPI is a PI decorator: one pi span per call around the primary.
type spanPI struct {
	inner cardpi.PI
	s     *slot
}

func (p *spanPI) Name() string { return p.inner.Name() }

func (p *spanPI) Interval(q workload.Query) (cardpi.Interval, error) {
	p.s.tr.begin(lPI, 1)
	iv, err := p.inner.Interval(q)
	p.s.tr.end()
	return iv, err
}

func (p *spanPI) IntervalBatch(qs []workload.Query) ([]cardpi.Interval, error) {
	p.s.tr.begin(lPI, len(qs))
	ivs, err := cardpi.IntervalBatch(p.inner, qs)
	p.s.tr.end()
	return ivs, err
}

// replaySetup is the build the replay serves: the same pipeline.Config the
// server builds, with the model and PI wrapped in span decorators, plus
// the wall time of each build-graph stage.
type replaySetup struct {
	s     *slot
	tab   *dataset.Table
	model *spanModel
	pi    cardpi.PI
	cal   *workload.Workload

	tableS, workloadsS, trainS, calibrateS float64
}

func buildReplay(w *spec) (*replaySetup, error) {
	cfg := pipeline.Config{
		Dataset: dsName, Model: w.model, Method: w.method, Alpha: alpha,
		Rows: rows, Queries: trainQueries, Seed: dataSeed,
	}
	rs := &replaySetup{s: &slot{}}
	g := pipeline.NewGraph()
	t := time.Now()
	tab, err := g.Table(cfg)
	if err != nil {
		return nil, err
	}
	rs.tableS = time.Since(t).Seconds()
	t = time.Now()
	train, cal, err := g.Workloads(cfg, tab)
	if err != nil {
		return nil, err
	}
	rs.workloadsS = time.Since(t).Seconds()
	t = time.Now()
	m, err := g.Model(cfg, tab, train)
	if err != nil {
		return nil, err
	}
	rs.trainS = time.Since(t).Seconds()
	rs.model = &spanModel{inner: m, s: rs.s}
	t = time.Now()
	pi, err := g.PI(cfg, rs.model, tab, train, cal)
	if err != nil {
		return nil, err
	}
	rs.calibrateS = time.Since(t).Seconds()
	rs.tab, rs.pi, rs.cal = tab, &spanPI{inner: pi, s: rs.s}, cal
	return rs, nil
}

// loadBundleSeconds times pipeline.LoadBundle on an artifact.
func loadBundleSeconds(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t := time.Now()
	if _, _, err := pipeline.LoadBundle(f, pipeline.LoadOptions{}); err != nil {
		return 0, fmt.Errorf("load %s: %w", path, err)
	}
	return time.Since(t).Seconds(), nil
}

// unit mirrors the server's default serving unit (newServingUnit) built
// fresh around the replay setup, with its own metrics registry.
type unit struct {
	s        *slot
	tab      *dataset.Table
	model    cardpi.Estimator
	res      *cardpi.Resilient
	adaptive *cardpi.Adaptive
	cache    *cache.Cache

	buf     bytes.Buffer
	rawQ    [][]byte
	lines   []string
	qs      []workload.Query
	keys    []cache.Key
	cres    []cache.Result
	hits    []bool
	depths  []int
	missQs  []workload.Query
	missIdx []int
	results []estimateResponse
	wire    []codec.WireResult
	body    []byte
}

func newUnit(rs *replaySetup, cacheEntries int) (*unit, error) {
	reg := obs.NewRegistry()
	adaptive, err := cardpi.NewAdaptive(rs.model, rs.cal, conformal.ResidualScore{}, cardpi.AdaptiveConfig{
		Alpha: alpha, Window: monitorWindow, Seed: dataSeed + 100, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	fallback, err := cardpi.WrapSplitCP(histogram.NewSingle(rs.tab, histogram.Config{}), rs.cal, conformal.ResidualScore{}, alpha/2)
	if err != nil {
		return nil, err
	}
	res, err := cardpi.NewResilient(cardpi.Instrument(rs.pi, reg), cardpi.ResilientConfig{
		Fallbacks: []cardpi.PI{fallback}, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	u := &unit{s: rs.s, tab: rs.tab, model: rs.model, res: res, adaptive: adaptive}
	if cacheEntries > 0 {
		u.cache = cache.New(cache.Config{Entries: cacheEntries, Epoch: new(cache.Epoch), Metrics: cache.NewMetrics(reg)})
	}
	return u, nil
}

// estimateResponse has the fields and JSON encoding of the server's reply.
type estimateResponse struct {
	Query    string  `json:"query"`
	Method   string  `json:"method"`
	ServedBy string  `json:"served_by"`
	Bundle   string  `json:"bundle,omitempty"`
	Degraded bool    `json:"degraded"`
	EstSel   float64 `json:"estimate_selectivity"`
	EstRows  float64 `json:"estimate_rows"`
	LoSel    float64 `json:"interval_lo_selectivity"`
	HiSel    float64 `json:"interval_hi_selectivity"`
	LoRows   float64 `json:"interval_lo_rows"`
	HiRows   float64 `json:"interval_hi_rows"`
	TrueRows int64   `json:"true_rows"`
	Covered  bool    `json:"covered"`
	Drifted  bool    `json:"drifted"`
	RollCov  float64 `json:"rolling_coverage"`
	Cached   bool    `json:"cached,omitempty"`
}

func (r *estimateResponse) answer() answer {
	return answer{est: r.EstSel, lo: r.LoSel, hi: r.HiSel, loRows: r.LoRows, hiRows: r.HiRows}
}

// single answers one GET /estimate query string.
func (u *unit) single(rawQuery string) (answer, error) {
	tr := u.s.tr
	tr.request()
	tr.begin(lServe, 1)
	defer tr.end()
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return answer{}, err
	}
	line := values.Get("q")
	tr.begin(lParse, 1)
	q, err := workload.ParseQuery(u.tab, line)
	tr.end()
	if err != nil {
		return answer{}, err
	}
	var resp estimateResponse
	if u.cache != nil {
		tr.begin(lKey, 1)
		k := cache.KeyOf(q)
		tr.end()
		tr.begin(lProbe, 1)
		r, ok := u.cache.Get(k)
		tr.end()
		if ok {
			resp = u.render(line, r, 0, true)
		} else {
			tr.begin(lFill, 1)
			r, aux, shared, _ := u.cache.Do(k, func() (cache.Result, uint64, bool, error) {
				iv, depth := u.interval(ctx, q)
				return u.compute(q, iv), uint64(depth), depth == 0, nil
			})
			tr.end()
			resp = u.render(line, r, int(aux), shared)
		}
	} else {
		iv, depth := u.interval(ctx, q)
		resp = u.render(line, u.compute(q, iv), depth, false)
	}
	u.buf.Reset()
	enc := json.NewEncoder(&u.buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return answer{}, err
	}
	return resp.answer(), nil
}

// batch answers one binary POST /estimate/batch body, appending each row's
// answer to out.
func (u *unit) batch(body []byte, out []answer) ([]answer, error) {
	tr := u.s.tr
	tr.request()
	tr.begin(lServe, 1)
	defer tr.end()
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	var epoch uint64
	if u.cache != nil {
		epoch = u.cache.Epoch().Load()
	}
	tr.begin(lDecode, 1)
	var err error
	u.rawQ, err = codec.DecodeWireRequest(body, u.rawQ[:0])
	u.lines = u.lines[:0]
	for _, q := range u.rawQ {
		u.lines = append(u.lines, string(q))
	}
	tr.end()
	if err != nil {
		return out, err
	}
	tr.begin(lParse, len(u.lines))
	u.qs = u.qs[:0]
	for _, line := range u.lines {
		q, err := workload.ParseQuery(u.tab, line)
		if err != nil {
			tr.end()
			return out, err
		}
		u.qs = append(u.qs, q)
	}
	tr.end()
	u.results = u.results[:0]
	if u.cache != nil {
		// The server interleaves KeyOf and Get per row; both are pure per
		// row, so running each over the batch gives the same replies with
		// two spans per batch instead of two per row.
		tr.begin(lKey, len(u.qs))
		u.keys = u.keys[:0]
		for i := range u.qs {
			u.keys = append(u.keys, cache.KeyOf(u.qs[i]))
		}
		tr.end()
		tr.begin(lProbe, len(u.qs))
		u.cres, u.hits, u.depths = u.cres[:0], u.hits[:0], u.depths[:0]
		u.missQs, u.missIdx = u.missQs[:0], u.missIdx[:0]
		for i, k := range u.keys {
			r, ok := u.cache.Get(k)
			u.cres = append(u.cres, r)
			u.hits = append(u.hits, ok)
			u.depths = append(u.depths, 0)
			if !ok {
				u.missQs = append(u.missQs, u.qs[i])
				u.missIdx = append(u.missIdx, i)
			}
		}
		tr.end()
		if len(u.missQs) > 0 {
			tr.begin(lFill, len(u.missQs))
			ivs, depths := u.intervalBatch(ctx, u.missQs)
			for j, idx := range u.missIdx {
				res := u.compute(u.qs[idx], ivs[j])
				u.cres[idx], u.depths[idx] = res, depths[j]
				if depths[j] == 0 {
					u.cache.Put(u.keys[idx], epoch, res)
				}
			}
			tr.end()
		}
		for i := range u.qs {
			u.results = append(u.results, u.render(u.lines[i], u.cres[i], u.depths[i], u.hits[i]))
		}
	} else {
		ivs, depths := u.intervalBatch(ctx, u.qs)
		u.depths = append(u.depths[:0], depths...)
		for i := range u.qs {
			u.results = append(u.results, u.render(u.lines[i], u.compute(u.qs[i], ivs[i]), depths[i], false))
		}
	}
	tr.begin(lEncode, 1)
	u.wire = u.wire[:0]
	for i := range u.results {
		u.wire = append(u.wire, wireResult(&u.results[i], u.depths[i]))
	}
	u.body = codec.AppendWireResponse(u.body[:0], uint64(u.tab.NumRows()), u.wire)
	tr.end()
	for i := range u.results {
		out = append(out, u.results[i].answer())
	}
	return out, nil
}

func (u *unit) interval(ctx context.Context, q workload.Query) (cardpi.Interval, int) {
	u.s.tr.begin(lResilient, 1)
	iv, depth := u.res.IntervalDepthCtx(ctx, q)
	u.s.tr.end()
	return iv, depth
}

func (u *unit) intervalBatch(ctx context.Context, qs []workload.Query) ([]cardpi.Interval, []int) {
	u.s.tr.begin(lResilient, len(qs))
	ivs, depths := u.res.IntervalBatchDepthCtx(ctx, qs)
	u.s.tr.end()
	return ivs, depths
}

// compute mirrors computeResult: ground truth, monitor feedback, and the
// point estimate around a served interval.
func (u *unit) compute(q workload.Query, iv cardpi.Interval) cache.Result {
	tr := u.s.tr
	tr.begin(lCount, 1)
	truth, err := u.tab.Count(q.Preds)
	tr.end()
	ok := err == nil
	if ok {
		tr.begin(lObserve, 1)
		u.adaptive.Observe(q, float64(truth)/float64(u.tab.NumRows()))
		tr.end()
	} else {
		truth = -1
	}
	est := u.model.EstimateSelectivity(q)
	if math.IsNaN(est) || math.IsInf(est, 0) {
		est = -1
	}
	return cache.Result{Est: est, Lo: iv.Lo, Hi: iv.Hi, TrueRows: truth, HasTruth: ok}
}

// render mirrors the server's render: reply fields around a result, with
// the monitor read live.
func (u *unit) render(line string, res cache.Result, depth int, cached bool) estimateResponse {
	n := int64(u.tab.NumRows())
	iv := cardpi.Interval{Lo: res.Lo, Hi: res.Hi}
	cardIv := cardpi.CardinalityInterval(iv, n)
	u.s.tr.begin(lRead, 1)
	drifted, rollCov := u.adaptive.Drifted(), u.adaptive.RollingCoverage()
	u.s.tr.end()
	served := "primary"
	switch {
	case depth >= u.res.FailsafeDepth():
		served = "failsafe"
	case depth > 0:
		served = fmt.Sprintf("fallback-%d", depth)
	}
	resp := estimateResponse{
		Query: line, Method: u.res.Name(), ServedBy: served, Degraded: depth > 0,
		EstSel: res.Est, EstRows: res.Est * float64(n),
		LoSel: iv.Lo, HiSel: iv.Hi, LoRows: cardIv.Lo, HiRows: cardIv.Hi,
		TrueRows: -1, Drifted: drifted, RollCov: rollCov, Cached: cached,
	}
	if res.HasTruth {
		resp.TrueRows = res.TrueRows
		resp.Covered = cardIv.Contains(float64(res.TrueRows))
	}
	return resp
}

// wireResult mirrors the server's JSON-to-binary reply conversion.
func wireResult(r *estimateResponse, depth int) codec.WireResult {
	var flags uint8
	if r.Covered {
		flags |= codec.WireFlagCovered
	}
	if r.Degraded {
		flags |= codec.WireFlagDegraded
	}
	if r.Drifted {
		flags |= codec.WireFlagDrifted
	}
	return codec.WireResult{
		EstSel: r.EstSel, EstRows: r.EstRows, LoSel: r.LoSel, HiSel: r.HiSel,
		LoRows: r.LoRows, HiRows: r.HiRows, TrueRows: r.TrueRows, RollCov: r.RollCov,
		Depth: uint8(min(max(depth, 0), 255)), Flags: flags,
	}
}

// replayResult is one replay's timed part: its wall time, its spans (nil
// untraced), and the number of timed requests.
type replayResult struct {
	wall     time.Duration
	spans    []span
	requests int
	rows     int
}

// replay serves the warm phase and the first timedN timed requests of the
// schedule through a fresh unit, tracing the timed part when traced is set,
// and checks every reply against the server's first reply in bk.
func replay(rs *replaySetup, w *spec, sch *schedule, timedN int, traced bool, bk *book) (replayResult, error) {
	u, err := newUnit(rs, w.cacheEntries)
	if err != nil {
		return replayResult{}, err
	}
	rs.s.tr = nil
	var raw []string
	if sch.batch == 1 {
		raw = make([]string, len(sch.lines))
		for i, line := range sch.lines {
			raw[i] = "q=" + url.QueryEscape(line)
		}
	}
	var mismatches int
	var out []answer
	send := func(idx []int32, body []byte) error {
		var err error
		if sch.batch == 1 {
			var a answer
			a, err = u.single(raw[idx[0]])
			out = append(out[:0], a)
		} else {
			out, err = u.batch(body, out[:0])
		}
		if err != nil {
			return err
		}
		for k, a := range out {
			if !bk.seen[idx[k]] || !a.sameBits(bk.first[idx[k]]) {
				mismatches++
			}
		}
		return nil
	}
	bodies := func(rows []int32, n int) [][]byte {
		if sch.batch == 1 {
			return make([][]byte, n)
		}
		bs := make([][]byte, n)
		lines := make([]string, 0, sch.batch)
		for i := range bs {
			lines = lines[:0]
			for _, j := range sch.request(rows, i) {
				lines = append(lines, sch.lines[j])
			}
			bs[i] = codec.AppendWireRequest(nil, lines)
		}
		return bs
	}
	warmN := sch.requests(sch.warm)
	for i, b := range bodies(sch.warm, warmN) {
		if err := send(sch.request(sch.warm, i), b); err != nil {
			return replayResult{}, fmt.Errorf("replay warm request %d: %w", i, err)
		}
	}
	timed := bodies(sch.timed, timedN)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rs.s.tr = tr
	start := time.Now()
	for i, b := range timed {
		if err := send(sch.request(sch.timed, i), b); err != nil {
			rs.s.tr = nil
			return replayResult{}, fmt.Errorf("replay timed request %d: %w", i, err)
		}
	}
	res := replayResult{wall: time.Since(start), requests: timedN, rows: timedN * sch.batch}
	rs.s.tr = nil
	if tr != nil {
		res.spans = tr.spans
	}
	if mismatches > 0 {
		return res, fmt.Errorf("replay: %d replies differ from the server's", mismatches)
	}
	return res, nil
}
