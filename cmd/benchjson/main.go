// Command benchjson converts `go test -bench` output on stdin into a JSON
// performance record. `make bench-json` pipes the NN-core benchmarks
// (BenchmarkFit, BenchmarkEvaluate, BenchmarkIntervalCV) through it into
// BENCH_nn.json, the batched-inference, localized-CP kernel, scalar MSCN
// and reply-encoder benchmarks into BENCH_pi.json, and
// the worker-count scaling matrix (BenchmarkIntervalBatchMT) into
// BENCH_batch_mt.json, the count oracle (BenchmarkCount against
// BenchmarkCountScan and BenchmarkCountRowScan, plus the value-order build)
// into BENCH_count.json, and the query parser
// (BenchmarkParseQuery against BenchmarkParseQueryRef), the cache key
// (BenchmarkKeyOf) and the warm hit row (BenchmarkServeHitRow, text probe
// against parse-then-probe) into BENCH_parse.json, giving future changes a
// perf trajectory to compare against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Output is the BENCH_*.json document.
type Output struct {
	Date       string             `json:"date"`
	Goos       string             `json:"goos"`
	Goarch     string             `json:"goarch"`
	CPU        string             `json:"cpu,omitempty"`
	NumCPU     int                `json:"num_cpu"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	doc := Output{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	doc.Speedups = speedups(doc.Benchmarks)

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine parses one result line, e.g.
//
//	BenchmarkFit/workers=8-4  5  12479618 ns/op  152947 B/op  215 allocs/op
//
// Trailing custom metrics (`0.91 coverage`) land in Metrics.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the trailing -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Runs: runs}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// speedups derives the headline ratios the benchmarks exist to track.
func speedups(bs []Benchmark) map[string]float64 {
	ns := map[string]float64{}
	// nsq is the per-query cost: the ns/query custom metric where a
	// benchmark reports one (the batch benchmarks amortise one op over the
	// whole batch), plain ns/op otherwise.
	nsq := map[string]float64{}
	for _, b := range bs {
		ns[b.Name] = b.NsPerOp
		nsq[b.Name] = b.NsPerOp
		if v, ok := b.Metrics["ns/query"]; ok {
			nsq[b.Name] = v
		}
	}
	out := map[string]float64{}
	ratio := func(key, base, fast string) {
		if ns[fast] > 0 && ns[base] > 0 {
			out[key] = ns[base] / ns[fast]
		}
	}
	ratioQ := func(key, base, fast string) {
		if nsq[fast] > 0 && nsq[base] > 0 {
			out[key] = nsq[base] / nsq[fast]
		}
	}
	ratio("fit_workers8_vs_seed", "BenchmarkFit/seed", "BenchmarkFit/workers=8")
	ratio("fit_sequential_vs_seed", "BenchmarkFit/seed", "BenchmarkFit/sequential")
	ratio("intervalcv_fast_vs_reference", "BenchmarkIntervalCV/reference", "BenchmarkIntervalCV/fast")
	// Queries/sec gained by the batched inference path (BENCH_pi.json).
	for _, method := range []string{"lcp", "mscn-s-cp"} {
		for _, n := range []string{"64", "1024"} {
			ratioQ("pi_"+method+"_batch"+n+"_vs_sequential",
				"BenchmarkInterval/"+method,
				"BenchmarkIntervalBatch/"+method+"/n="+n)
		}
	}
	// The serve-shaped localized-CP kernel against its full-sort reference,
	// and scalar MSCN inference against the training-path forward
	// (BENCH_pi.json).
	ratio("localdelta_servebench-shaped_vs_ref", "BenchmarkLocalDeltaRef/servebench-shaped", "BenchmarkLocalDelta/servebench-shaped")
	ratio("mscn_estimate_servebench-shaped_vs_forward", "BenchmarkEstimateSelectivityForward/servebench-shaped", "BenchmarkEstimateSelectivity/servebench-shaped")
	// The append reply encoder against encoding/json with SetIndent on one
	// serve-shaped /estimate reply (BENCH_pi.json).
	ratio("reply_encode_servebench-shaped_vs_json", "BenchmarkReplyEncodeJSON/servebench-shaped", "BenchmarkReplyEncode/servebench-shaped")
	// Table.Count on its per-column value orders against the
	// row-at-a-time reference and against the column-at-a-time scan it ran
	// before them (BENCH_count.json); the broad cases fall back to that scan.
	for _, w := range []string{"servebench-shaped", "dmv-100k", "dmv-20k-broad", "power-200k-narrow", "power-200k-broad"} {
		ratio("count_"+w+"_index_vs_rowscan", "BenchmarkCountRowScan/"+w, "BenchmarkCount/"+w)
		ratio("count_"+w+"_index_vs_scan", "BenchmarkCountScan/"+w, "BenchmarkCount/"+w)
	}
	// The allocation-free query parser against its reference
	// (BENCH_parse.json).
	for _, w := range []string{"servebench-shaped", "header-form", "join"} {
		ratio("parse_"+w+"_vs_ref", "BenchmarkParseQueryRef/"+w, "BenchmarkParseQuery/"+w)
	}
	// A warm cache hit answered from the row's canonical text against the
	// same hit parsed, keyed and probed (BENCH_parse.json).
	ratio("hit_text_vs_parse", "BenchmarkServeHitRow/parse", "BenchmarkServeHitRow/text")
	// Multi-core scaling of the sharded row-block kernels
	// (BENCH_batch_mt.json): W=k vs W=1 on the same batch shape. The W
	// dimension is discovered from the result names, so a box whose NumCPU
	// adds an extra point gets its ratio recorded too.
	for name := range nsq {
		base, w, ok := strings.Cut(name, "/W=")
		if !ok || w == "1" || !strings.HasPrefix(name, "BenchmarkIntervalBatchMT/") {
			continue
		}
		key := strings.TrimPrefix(base, "BenchmarkIntervalBatchMT/")
		key = "mt_" + strings.NewReplacer("/", "_", "=", "").Replace(key) + "_w" + w + "_vs_w1"
		ratioQ(key, base+"/W=1", name)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
