package main

import "testing"

// The probe's walk is one cycle through every word, so no run of loads can
// settle into a short loop that fits in a cache.
func TestMemProbeIsOneCycle(t *testing.T) {
	p := newMemProbe()
	j, n := uint32(0), 0
	for {
		j = p.next[j]
		n++
		if j == 0 || n > probeWords {
			break
		}
	}
	if n != probeWords {
		t.Fatalf("cycle through word 0 has %d words, want %d", n, probeWords)
	}
}
