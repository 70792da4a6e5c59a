// Package mscn implements the multi-set convolutional network of Kipf et al.
// ("Learned cardinalities: estimating correlated joins with deep learning"),
// the paper's exemplar of supervised query-driven estimation. A query is
// represented as two sets — participating tables and predicates — each
// element of which passes through a shared per-set MLP; the element outputs
// are average-pooled, concatenated, and fed to an output MLP that regresses
// log-selectivity. Training minimises the mean q-error loss, as in the
// paper; a pinball-loss variant provides the CQR quantile regressors.
package mscn

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/nn"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// Featurizer converts queries into MSCN's set representation. It is built
// either over a single table or over a star schema (for join workloads).
// When a sample size is configured, each table-set element carries a
// materialized sample bitmap — one bit per sampled base-table row indicating
// whether it satisfies the query's predicates on that table — the signal
// that lets the original MSCN see through correlated predicates.
type Featurizer struct {
	tables   []string
	tableIdx map[string]int
	// colIdx maps table/column to a global column index.
	colIdx map[string]int
	// colRef resolves a global column index back to its Column for
	// normalisation.
	cols []*dataset.Column

	single *dataset.Table
	schema *dataset.Schema

	// sampleRows[table] lists the sampled row indexes (empty = no bitmaps).
	sampleRows map[string][]int
	sampleBits int
}

// NewSingleFeaturizer builds the featurizer for single-table workloads.
func NewSingleFeaturizer(t *dataset.Table) *Featurizer {
	f := &Featurizer{
		tables:   []string{t.Name},
		tableIdx: map[string]int{t.Name: 0},
		colIdx:   make(map[string]int),
		single:   t,
	}
	for _, c := range t.Cols {
		f.colIdx[t.Name+"."+c.Name] = len(f.cols)
		f.cols = append(f.cols, c)
	}
	return f
}

// NewSchemaFeaturizer builds the featurizer for join workloads over a star
// schema.
func NewSchemaFeaturizer(s *dataset.Schema) *Featurizer {
	f := &Featurizer{
		tableIdx: make(map[string]int),
		colIdx:   make(map[string]int),
		schema:   s,
	}
	names := s.Tables()
	sort.Strings(names[1:]) // center first, rest already sorted by Tables()
	for _, name := range names {
		f.tableIdx[name] = len(f.tables)
		f.tables = append(f.tables, name)
		for _, c := range s.Table(name).Cols {
			f.colIdx[name+"."+c.Name] = len(f.cols)
			f.cols = append(f.cols, c)
		}
	}
	return f
}

// WithSampleBitmaps enables materialized sample bitmaps of the given size:
// bits rows are sampled deterministically from every table, and each
// table-set element gains bits entries marking which sampled rows satisfy
// the query's predicates on that table. Call before training; the feature
// dimensions change.
func (f *Featurizer) WithSampleBitmaps(bits int, seed int64) *Featurizer {
	if bits <= 0 {
		return f
	}
	f.sampleBits = bits
	f.sampleRows = make(map[string][]int, len(f.tables))
	r := rand.New(rand.NewSource(seed))
	for _, name := range f.tables {
		t := f.tableByName(name)
		n := t.NumRows()
		k := bits
		if k > n {
			k = n
		}
		f.sampleRows[name] = r.Perm(n)[:k]
	}
	return f
}

func (f *Featurizer) tableByName(name string) *dataset.Table {
	if f.single != nil {
		return f.single
	}
	return f.schema.Table(name)
}

// PredDim returns the per-predicate feature length: one-hot table, one-hot
// global column, one-hot operator, and the normalised bounds.
func (f *Featurizer) PredDim() int { return len(f.tables) + len(f.cols) + 2 + 2 }

// TableDim returns the per-table feature length: a table one-hot plus the
// sample bitmap when enabled.
func (f *Featurizer) TableDim() int { return len(f.tables) + f.sampleBits }

// SetElements expands a query into its table-set and predicate-set feature
// vectors.
func (f *Featurizer) SetElements(q workload.Query) (tableFeats, predFeats [][]float64) {
	appendTable := func(name string, preds []dataset.Predicate) {
		v := make([]float64, f.TableDim())
		if i, ok := f.tableIdx[name]; ok {
			v[i] = 1
		}
		if f.sampleBits > 0 {
			f.fillBitmap(v[len(f.tables):], name, preds)
		}
		tableFeats = append(tableFeats, v)
	}
	appendPreds := func(table string, preds []dataset.Predicate) {
		for _, p := range preds {
			gi, ok := f.colIdx[table+"."+p.Col]
			if !ok {
				continue
			}
			v := make([]float64, f.PredDim())
			if ti, ok := f.tableIdx[table]; ok {
				v[ti] = 1
			}
			v[len(f.tables)+gi] = 1
			opBase := len(f.tables) + len(f.cols)
			lo, hi := p.Lo, p.Hi
			if p.Op == dataset.OpEq {
				v[opBase] = 1
				hi = p.Lo
			} else {
				v[opBase+1] = 1
			}
			c := f.cols[gi]
			v[opBase+2] = normalise(lo, c)
			v[opBase+3] = normalise(hi, c)
			predFeats = append(predFeats, v)
		}
	}

	if q.IsJoin() && f.schema != nil {
		appendTable(f.schema.Center.Name, q.Join.Preds[f.schema.Center.Name])
		for _, name := range q.Join.Tables {
			appendTable(name, q.Join.Preds[name])
		}
		for table, preds := range q.Join.Preds {
			appendPreds(table, preds)
		}
		// Predicate iteration order over the map must be deterministic for
		// reproducible training: sort by feature signature.
		sort.Slice(predFeats, func(i, j int) bool { return lessVec(predFeats[i], predFeats[j]) })
		return tableFeats, predFeats
	}
	if f.single != nil {
		appendTable(f.single.Name, q.Preds)
		appendPreds(f.single.Name, q.Preds)
	}
	return tableFeats, predFeats
}

// fillBitmap sets dst[i] = 1 when sampled row i of the table satisfies the
// conjunction of the query's predicates on that table (rows with no
// predicates all match). Predicates on unknown columns match nothing.
func (f *Featurizer) fillBitmap(dst []float64, table string, preds []dataset.Predicate) {
	t := f.tableByName(table)
	rows := f.sampleRows[table]
	if t == nil || rows == nil {
		return
	}
	cols := make([][]int64, len(preds))
	for pi, p := range preds {
		c := t.Column(p.Col)
		if c == nil {
			return
		}
		cols[pi] = c.Values
	}
rows:
	for bi, ri := range rows {
		for pi, p := range preds {
			if !p.Matches(cols[pi][ri]) {
				continue rows
			}
		}
		dst[bi] = 1
	}
}

func lessVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func normalise(v int64, c *dataset.Column) float64 {
	min := c.Min
	if c.Type == dataset.Categorical {
		min = 0
	}
	width := c.DomainWidth()
	if width <= 1 {
		return 0
	}
	x := float64(v-min) / float64(width-1)
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Config controls training.
type Config struct {
	// Hidden is the width of the per-set MLPs and pooled representation.
	Hidden int
	// Epochs, BatchSize, LR drive minibatch Adam.
	Epochs    int
	BatchSize int
	LR        float64
	// Seed makes initialisation and training deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	return c
}

// Model is a trained MSCN estimator.
type Model struct {
	name     string
	feat     *Featurizer
	predNet  *nn.Net
	tableNet *nn.Net
	outNet   *nn.Net
	hidden   int
	// pool recycles batchScratch buffer sets across PredictLogBatch and
	// scalar PredictLog/EstimateSelectivity calls (batch.go); the zero value
	// is ready to use, so the serialize loader needs no extra wiring.
	pool sync.Pool
}

// Train fits MSCN with the mean q-error loss on log-selectivity labels.
func Train(f *Featurizer, wl *workload.Workload, cfg Config) (*Model, error) {
	return train(f, wl, nn.QErrorLoss{}, "mscn", cfg)
}

// TrainQuantile fits the tau-quantile variant: identical architecture, with
// the loss replaced by the pinball loss — exactly the modification the paper
// makes for CQR.
func TrainQuantile(f *Featurizer, wl *workload.Workload, tau float64, cfg Config) (*Model, error) {
	if tau <= 0 || tau >= 1 {
		return nil, fmt.Errorf("mscn: tau must be in (0,1), got %v", tau)
	}
	return train(f, wl, nn.PinballLoss{Tau: tau}, fmt.Sprintf("mscn-q%.3f", tau), cfg)
}

func train(f *Featurizer, wl *workload.Workload, loss nn.Loss, name string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if wl == nil || len(wl.Queries) == 0 {
		return nil, fmt.Errorf("mscn: empty training workload")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		name:     name,
		feat:     f,
		predNet:  nn.NewNet(r, f.PredDim(), cfg.Hidden, cfg.Hidden),
		tableNet: nn.NewNet(r, f.TableDim(), cfg.Hidden, cfg.Hidden),
		outNet:   nn.NewNet(r, 2*cfg.Hidden, cfg.Hidden, 1),
		hidden:   cfg.Hidden,
	}

	// Pre-featurise the workload once; SetElements only reads the featurizer
	// and writes fresh per-call buffers, so queries featurise concurrently.
	type sample struct {
		tables, preds [][]float64
		y             float64
	}
	samples := make([]sample, len(wl.Queries))
	par.ForEach(len(wl.Queries), func(i int) error {
		lq := wl.Queries[i]
		tf, pf := f.SetElements(lq.Query)
		samples[i] = sample{tables: tf, preds: pf, y: estimator.LogSel(lq.Sel)}
		return nil
	})

	opt := nn.NewAdam(cfg.LR, m.predNet, m.tableNet, m.outNet)
	trainRng := rand.New(rand.NewSource(cfg.Seed + 1))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		idx := trainRng.Perm(len(samples))
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, si := range idx[start:end] {
				s := samples[si]
				pred, caches := m.forward(s.tables, s.preds)
				m.backward(caches, loss.Grad(pred, s.y))
			}
			opt.Step(end - start)
		}
	}
	return m, nil
}

// forwardCaches keeps everything needed for backward.
type forwardCaches struct {
	tableCaches []*nn.Cache
	predCaches  []*nn.Cache
	outCache    *nn.Cache
	tableFeats  [][]float64
	predFeats   [][]float64
}

func (m *Model) forward(tableFeats, predFeats [][]float64) (float64, *forwardCaches) {
	c := &forwardCaches{tableFeats: tableFeats, predFeats: predFeats}
	pooledT := make([]float64, m.hidden)
	for _, tf := range tableFeats {
		out, cache := m.tableNet.Forward(tf)
		c.tableCaches = append(c.tableCaches, cache)
		for i, v := range out {
			pooledT[i] += v
		}
	}
	if len(tableFeats) > 0 {
		for i := range pooledT {
			pooledT[i] /= float64(len(tableFeats))
		}
	}
	pooledP := make([]float64, m.hidden)
	for _, pf := range predFeats {
		out, cache := m.predNet.Forward(pf)
		c.predCaches = append(c.predCaches, cache)
		for i, v := range out {
			pooledP[i] += v
		}
	}
	if len(predFeats) > 0 {
		for i := range pooledP {
			pooledP[i] /= float64(len(predFeats))
		}
	}
	concat := make([]float64, 0, 2*m.hidden)
	concat = append(concat, pooledT...)
	concat = append(concat, pooledP...)
	out, outCache := m.outNet.Forward(concat)
	c.outCache = outCache
	return out[0], c
}

func (m *Model) backward(c *forwardCaches, gradOut float64) {
	gradConcat := m.outNet.Backward(c.outCache, []float64{gradOut})
	gradT := gradConcat[:m.hidden]
	gradP := gradConcat[m.hidden:]
	if k := len(c.tableCaches); k > 0 {
		scaled := make([]float64, m.hidden)
		for i, g := range gradT {
			scaled[i] = g / float64(k)
		}
		for _, cache := range c.tableCaches {
			m.tableNet.Backward(cache, scaled)
		}
	}
	if k := len(c.predCaches); k > 0 {
		scaled := make([]float64, m.hidden)
		for i, g := range gradP {
			scaled[i] = g / float64(k)
		}
		for _, cache := range c.predCaches {
			m.predNet.Backward(cache, scaled)
		}
	}
}

// Name implements estimator.Estimator.
func (m *Model) Name() string { return m.name }

// EstimateSelectivity implements estimator.Estimator. It is the batched
// kernel on a batch of one: allocation-free once the model's scratch pool is
// warm, and bit-identical to the training-path forward. Safe for concurrent
// use.
func (m *Model) EstimateSelectivity(q workload.Query) float64 {
	return estimator.SelFromLog(m.PredictLog(q))
}

// PredictLog returns the raw log-selectivity output, used by the quantile
// variants where clamping to [0,1] before conformalisation would discard
// information. Like EstimateSelectivity it runs the batched kernel on one
// query.
func (m *Model) PredictLog(q workload.Query) float64 {
	qs := [1]workload.Query{q}
	var out [1]float64
	m.predictLogBlock(qs[:], out[:])
	return out[0]
}
