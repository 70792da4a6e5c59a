package main

import (
	"math/rand"
	"time"
)

// On a shared VM the speed of the memory system moves with what other
// tenants run, by up to 40% over minutes, without any hypervisor steal to
// show for it; the server's CPU time per query moves in proportion. A
// memProbe measures it: the latency of a dependent load into a working set
// larger than the per-core caches, through code that is none of the
// program's. Timings are reported scaled to refLoadNs, a host whose loads
// take that long, so runs on a busy and on a quiet host read alike, and
// the unscaled figures go to the diagnostics.
const (
	probeWords = 1 << 20 // 4 MiB of uint32
	probeSteps = 50000   // about 8 ms
	// refLoadNs is the reference load latency; it is about what the probe
	// reads on a quiet 2-vCPU Xeon VM.
	refLoadNs = 150.0
)

// memProbe walks one random cycle through probeWords words.
type memProbe struct {
	next []uint32
	pos  uint32
}

func newMemProbe() *memProbe {
	r := rand.New(rand.NewSource(2))
	perm := r.Perm(probeWords)
	p := &memProbe{next: make([]uint32, probeWords)}
	for i := range perm {
		p.next[perm[i]] = uint32(perm[(i+1)%probeWords])
	}
	p.loadNs() // fault the pages in
	return p
}

// loadNs follows probeSteps dependent loads and returns the mean time of
// one, in ns.
func (p *memProbe) loadNs() float64 {
	t := time.Now()
	j := p.pos
	for i := 0; i < probeSteps; i++ {
		j = p.next[j]
	}
	p.pos = j
	return float64(time.Since(t)) / probeSteps
}
