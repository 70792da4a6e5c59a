package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// layer names one span kind: a layer boundary the traced replay wraps.
type layer uint8

const (
	lServe     layer = iota // the handler itself (root span of a request)
	lParse                  // workload.ParseQuery
	lKey                    // cache.KeyOf
	lProbe                  // cache.Cache.Get
	lFill                   // cache.Cache.Do / Put around a miss
	lResilient              // cardpi.Resilient (plus its Instrument wrapper)
	lPI                     // the primary PI (conformal band + model forward)
	lModel                  // estimator forward pass
	lCount                  // dataset.Table.Count ground truth
	lObserve                // cardpi.Adaptive.Observe
	lRead                   // cardpi.Adaptive.Drifted + RollingCoverage
	lDecode                 // codec.DecodeWireRequest
	lEncode                 // codec.AppendWireResponse
	numLayers
)

var layerNames = [numLayers]string{
	"serve", "workload.parse", "cache.key", "cache.probe", "cache.fill",
	"resilient", "pi", "model.forward", "dataset.count", "monitor.observe",
	"monitor.read", "codec.decode", "codec.encode",
}

// span is one traced call: its layer, the request it belongs to, its parent
// span (-1 for a request's root), how many calls (rows) it covers, and its
// start and end in nanoseconds since the tracer was created.
type span struct {
	Req    int32 `json:"req"`
	Parent int32 `json:"parent"`
	Layer  layer `json:"layer"`
	Calls  int32 `json:"calls"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer keeps spans in memory. The replay is single-threaded, so the open
// spans form a stack and the top of the stack is every new span's parent.
// A nil *tracer records nothing, which is how the untraced replay runs the
// same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
	req    int32
}

func newTracer() *tracer { return &tracer{origin: time.Now(), req: -1} }

// request starts a new request: spans begun from now on share its id.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span of layer l covering calls calls.
func (t *tracer) begin(l layer, calls int) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{
		Req: t.req, Parent: parent, Layer: l, Calls: int32(calls),
		Start: int64(time.Since(t.origin)),
	})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.origin))
	t.open = t.open[:n]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// merged, so time two children share counts once, and child time outside
// the parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				self[i] -= curHi - curLo
			}
		}
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				flush()
				curLo, curHi = lo, hi
				continue
			}
			curHi = max(curHi, hi)
		}
		flush()
	}
	return self
}

// layerStats aggregates a trace per layer: summed self time, summed total
// (wall) time, and summed calls.
type layerStats struct {
	selfNs, totalNs [numLayers]int64
	calls           [numLayers]int64
}

// aggregate sums a trace's spans per layer.
func aggregate(spans []span) layerStats {
	var st layerStats
	self := selfTimes(spans)
	for i, s := range spans {
		st.selfNs[s.Layer] += self[i]
		st.totalNs[s.Layer] += s.End - s.Start
		st.calls[s.Layer] += int64(s.Calls)
	}
	return st
}

// selfPerCallUs is a layer's mean self time per call in microseconds (0 when
// the layer made no calls).
func (st layerStats) selfPerCallUs(l layer) float64 {
	if st.calls[l] == 0 {
		return 0
	}
	return float64(st.selfNs[l]) / float64(st.calls[l]) / 1e3
}

// totalPerCallUs is a layer's mean wall time per call in microseconds.
func (st layerStats) totalPerCallUs(l layer) float64 {
	if st.calls[l] == 0 {
		return 0
	}
	return float64(st.totalNs[l]) / float64(st.calls[l]) / 1e3
}

// writeSpans dumps the trace as JSON lines, one span per line, after a
// header line naming the layers.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"layers": layerNames}); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
