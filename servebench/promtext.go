package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// samples maps a Prometheus series, written as in the exposition text
// (`name` or `name{k="v",...}`), to its value.
type samples map[string]float64

// parseProm reads the Prometheus text exposition format: comment lines are
// skipped, every other non-blank line is `series value`.
func parseProm(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so split after the closing brace.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[cut:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// diff returns after - before for every series in after.
func diff(before, after samples) samples {
	out := make(samples, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds the values of every series of metric name whose labels include
// all of the given `k="v"` pairs.
func (s samples) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range s {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(series, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
