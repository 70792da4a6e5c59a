package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cardpi/internal/codec"
)

// answer is one query's reply as the client decoded it: selectivity
// estimate and interval, and the interval in rows.
type answer struct {
	est, lo, hi    float64
	loRows, hiRows float64
}

// sameBits reports whether two replies carry bit-identical est/lo/hi.
func (a answer) sameBits(b answer) bool {
	return math.Float64bits(a.est) == math.Float64bits(b.est) &&
		math.Float64bits(a.lo) == math.Float64bits(b.lo) &&
		math.Float64bits(a.hi) == math.Float64bits(b.hi)
}

// jsonReply is the subset of the /estimate JSON reply the checks read.
type jsonReply struct {
	Query    string  `json:"query"`
	ServedBy string  `json:"served_by"`
	EstSel   float64 `json:"estimate_selectivity"`
	LoSel    float64 `json:"interval_lo_selectivity"`
	HiSel    float64 `json:"interval_hi_selectivity"`
	LoRows   float64 `json:"interval_lo_rows"`
	HiRows   float64 `json:"interval_hi_rows"`
}

// book holds the first reply seen for each universe query and counts
// later replies that differ from it in any bit.
type book struct {
	first    []answer
	seen     []bool
	mismatch int
}

func newBook(n int) *book { return &book{first: make([]answer, n), seen: make([]bool, n)} }

func (b *book) add(i int32, a answer) {
	if !b.seen[i] {
		b.first[i], b.seen[i] = a, true
		return
	}
	if !a.sameBits(b.first[i]) {
		b.mismatch++
	}
}

// merge folds o into b, comparing o's first replies against b's.
func (b *book) merge(o *book) {
	for i, ok := range o.seen {
		if ok {
			b.add(int32(i), o.first[i])
		}
	}
	b.mismatch += o.mismatch
}

// phase is what one load phase measured.
type phase struct {
	requests, failed int
	rows             int
	wall             time.Duration
	lat              []float64 // per successful request, microseconds
	firstErr         error
	notPrimary       int // rows a fallback stage answered
}

// add folds q, a phase that ran after p, into p.
func (p *phase) add(q phase) {
	p.requests += q.requests
	p.failed += q.failed
	p.rows += q.rows
	p.wall += q.wall
	p.lat = append(p.lat, q.lat...)
	p.notPrimary += q.notPrimary
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// loader sends a schedule's requests to one server over `clients`
// closed-loop clients, each with its own keep-alive connection.
type loader struct {
	sch     *schedule
	clients []*conn
	gets    [][]byte // GET /estimate request per universe query (single mode)
}

func newLoader(sch *schedule, addr string, clients int) *loader {
	l := &loader{sch: sch}
	for i := 0; i < clients; i++ {
		l.clients = append(l.clients, newConn(addr))
	}
	if sch.batch == 1 {
		l.gets = make([][]byte, len(sch.lines))
		for i, line := range sch.lines {
			l.gets[i] = []byte("GET /estimate?q=" + url.QueryEscape(line) + " HTTP/1.1\r\nHost: cardpi\r\n\r\n")
		}
	}
	return l
}

func (l *loader) close() {
	for _, c := range l.clients {
		c.close()
	}
}

// run sends every request of rows, each client taking the next unsent
// request as soon as its previous one has completed, and records replies
// into bk.
func (l *loader) run(rows []int32, bk *book) phase {
	n := l.sch.requests(rows)
	var next atomic.Int64
	parts := make([]phase, len(l.clients))
	books := make([]*book, len(l.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range l.clients {
		books[c] = newBook(len(l.sch.lines))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			p.lat = make([]float64, 0, n/len(l.clients)+1)
			var req []byte
			var wire []codec.WireResult
			lines := make([]string, 0, l.sch.batch)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				idx := l.sch.request(rows, i)
				p.requests++
				t0 := time.Now()
				var err error
				if l.sch.batch == 1 {
					err = l.single(l.clients[c], idx[0], books[c], p)
				} else {
					lines = lines[:0]
					for _, j := range idx {
						lines = append(lines, l.sch.lines[j])
					}
					req = batchRequest(req[:0], lines)
					wire, err = l.batch(l.clients[c], req, idx, wire, books[c], p)
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.lat = append(p.lat, float64(time.Since(t0).Nanoseconds())/1e3)
				p.rows += len(idx)
			}
		}(c)
	}
	wg.Wait()
	out := phase{}
	for c := range parts {
		out.add(parts[c])
		bk.merge(books[c])
	}
	out.wall = time.Since(start)
	return out
}

// single sends GET /estimate for universe query i and checks the reply.
func (l *loader) single(c *conn, i int32, bk *book, p *phase) error {
	status, body, err := c.do(l.gets[i])
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("/estimate status %d: %s", status, bytes.TrimSpace(body))
	}
	var r jsonReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode /estimate reply: %w", err)
	}
	if r.Query != l.sch.lines[i] {
		return fmt.Errorf("reply for %q names query %q", l.sch.lines[i], r.Query)
	}
	if r.ServedBy != "primary" {
		p.notPrimary++
	}
	bk.add(i, answer{est: r.EstSel, lo: r.LoSel, hi: r.HiSel, loRows: r.LoRows, hiRows: r.HiRows})
	return nil
}

// batchRequest appends a binary POST /estimate/batch request for lines.
func batchRequest(dst []byte, lines []string) []byte {
	n := 0
	for _, line := range lines {
		n += 4 + len(line)
	}
	dst = append(dst, "POST /estimate/batch HTTP/1.1\r\nHost: cardpi\r\nContent-Type: "...)
	dst = append(dst, codec.WireContentType...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(8+n), 10)
	dst = append(dst, "\r\n\r\n"...)
	return codec.AppendWireRequest(dst, lines)
}

// batch sends one binary POST /estimate/batch and checks the reply.
func (l *loader) batch(c *conn, req []byte, idx []int32, wire []codec.WireResult, bk *book, p *phase) ([]codec.WireResult, error) {
	status, body, err := c.do(req)
	if err != nil {
		return wire, err
	}
	if status != 200 {
		return wire, fmt.Errorf("/estimate/batch status %d: %s", status, bytes.TrimSpace(body))
	}
	_, wire, err = codec.DecodeWireResponse(body, wire[:0])
	if err != nil {
		return wire, fmt.Errorf("decode /estimate/batch reply: %w", err)
	}
	if len(wire) != len(idx) {
		return wire, fmt.Errorf("batch of %d answered with %d results", len(idx), len(wire))
	}
	for k, w := range wire {
		if w.Depth != 0 {
			p.notPrimary++
		}
		bk.add(idx[k], answer{est: w.EstSel, lo: w.LoSel, hi: w.HiSel, loRows: w.LoRows, hiRows: w.HiRows})
	}
	return wire, nil
}
