package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Parent: -1, Start: 0, End: 100}, // 0: root
		{Parent: 0, Start: 10, End: 30},  // 1
		{Parent: 0, Start: 20, End: 50},  // 2: overlaps 1
		{Parent: 0, Start: 90, End: 120}, // 3: runs past the root
		{Parent: 2, Start: 25, End: 45},  // 4: grandchild of 0
		{Parent: -1, Start: 200, End: 210},
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90), // children cover [10,50] and [90,100]
		20,
		30 - 20,
		30,
		20,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.request()
	tr.begin(lServe, 1)
	tr.begin(lParse, 64)
	tr.end()
	tr.begin(lResilient, 1)
	tr.begin(lPI, 1)
	tr.end()
	tr.end()
	tr.end()
	tr.request()
	tr.begin(lServe, 1)
	tr.end()
	want := []struct {
		req, parent int32
		l           layer
	}{{0, -1, lServe}, {0, 0, lParse}, {0, 0, lResilient}, {0, 2, lPI}, {1, -1, lServe}}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(want))
	}
	for i, w := range want {
		s := tr.spans[i]
		if s.Req != w.req || s.Parent != w.parent || s.Layer != w.l || s.End < s.Start {
			t.Errorf("span %d = %+v, want req %d parent %d layer %s", i, s, w.req, w.parent, layerNames[w.l])
		}
	}
	st := aggregate(tr.spans)
	if st.calls[lParse] != 64 || st.calls[lServe] != 2 {
		t.Errorf("calls parse %d serve %d", st.calls[lParse], st.calls[lServe])
	}
	var self int64
	for l := range st.selfNs {
		self += st.selfNs[l]
	}
	if root := st.totalNs[lServe]; self != root {
		t.Errorf("self times sum to %d, roots to %d", self, root)
	}

	var off *tracer // untraced: every call is a no-op
	off.request()
	off.begin(lServe, 1)
	off.end()
}
