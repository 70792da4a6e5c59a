package cache

import (
	"cardpi/internal/dataset"
	"cardpi/internal/workload"
)

// Key is the 128-bit canonical identity of a query: the hash of its
// canonical text, workload.QueryText(workload.Canonicalize(q)). Two queries
// get equal keys iff their canonical forms are equal — up to hash
// collisions, which at 128 bits are negligible against any realistic cache
// population (the birthday bound crosses 2^-40 only beyond ~10^13 distinct
// queries). Because the key hashes text, a raw request line can be probed
// before it is parsed: KeyOfText(line) == KeyOf(q) exactly when the line is
// byte-equal to q's canonical text. The zero Key is a valid (if improbable)
// hash; entry occupancy is tracked separately, so no key value is reserved.
type Key struct {
	// Hi selects the set within a shard; Lo selects the shard. The two
	// halves come from independently seeded mixers, so the full 128 bits
	// back the equality check while each half is uniform on its own.
	Hi, Lo uint64
}

// maxInlinePreds bounds the stack scratch KeyOf canonicalizes into; beyond
// it the canonical form spills to the heap. Generated workloads cap
// predicates at the column count (≤ 11 across the bundled datasets) and
// the parser intersects per column, so real queries always fit.
const maxInlinePreds = 16

// maxInlineText bounds the stack buffer KeyOf renders the canonical text
// into; a longer text costs one heap allocation, nothing else. Serve-shaped
// queries (1–3 conjuncts) render to well under a tenth of it.
const maxInlineText = 512

// KeyOf hashes q's canonical text into a Key. Single-table queries with at
// most maxInlinePreds predicates and a canonical text of at most
// maxInlineText bytes hash with zero heap allocations — the canonical
// scratch and the text live on the stack — which keeps the serve-layer
// cache probe allocation-free. The property tests rely on (and verify)
//
//	KeyOf(q) == KeyOf(workload.Canonicalize(q))
//	KeyOf(q) == KeyOfText(workload.QueryText(workload.Canonicalize(q)))
//
// so callers may hash raw queries directly. Join queries take the
// allocating path through Query.Key (joins are not on the serving hot
// path).
func KeyOf(q workload.Query) Key {
	if q.Join != nil {
		return keyOfString(q.Key())
	}
	var scratch [maxInlinePreds]dataset.Predicate
	var buf []dataset.Predicate
	if len(q.Preds) <= maxInlinePreds {
		buf = scratch[:0]
	} else {
		buf = make([]dataset.Predicate, 0, len(q.Preds))
	}
	buf = workload.CanonicalizePreds(buf, q.Preds)
	var text [maxInlineText]byte
	return KeyOfText(workload.AppendQueryText(text[:0], workload.Query{Preds: buf}))
}

// KeyOfText hashes a raw query line with KeyOf's framing, without parsing
// it: it equals KeyOf(q) exactly when line is byte-equal to q's canonical
// text (up to 128-bit collisions), and is allocation-free. The serve path
// probes the cache with it before parsing; a line spelled any other way
// simply misses here and is parsed and probed by KeyOf.
func KeyOfText[T string | []byte](line T) Key {
	h := newHasher()
	absorb(&h, line)
	return h.sum()
}

// keyOfString hashes an opaque canonical string (the join-query path). The
// extra leading length word keeps its framing apart from KeyOfText's.
func keyOfString(s string) Key {
	h := newHasher()
	h.word(uint64(len(s)))
	absorb(&h, s)
	return h.sum()
}

// hasher is a 128-bit incremental mixer: two independently seeded 64-bit
// lanes, each word absorbed with a multiply–xor–shift (splitmix64
// finalizer) round. It is not cryptographic: a request line crafted to
// collide with a cached key is answered with that entry's interval, to its
// own sender only — a text probe reads entries and never writes one.
type hasher struct {
	h1, h2 uint64
}

func newHasher() hasher {
	return hasher{h1: 0x9E3779B97F4A7C15, h2: 0xC2B2AE3D27D4EB4F}
}

// word absorbs one 64-bit value into both lanes.
func (h *hasher) word(v uint64) {
	h.h1 = mix64(h.h1 ^ v)
	h.h2 = mix64(h.h2 + v*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D)
}

// absorb feeds a string or byte slice into h as little-endian 64-bit
// chunks plus an explicit length word, so "ab"+"c" and "a"+"bc" cannot alias
// across field boundaries, and equal bytes hash equally whichever type
// carries them.
func absorb[T string | []byte](h *hasher, s T) {
	h.word(uint64(len(s)))
	for len(s) >= 8 {
		v := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h.word(v)
		s = s[8:]
	}
	if len(s) > 0 {
		var v uint64
		for i := len(s) - 1; i >= 0; i-- {
			v = v<<8 | uint64(s[i])
		}
		h.word(v)
	}
}

// sum finalizes both lanes into the 128-bit key.
func (h *hasher) sum() Key {
	return Key{Hi: mix64(h.h1 ^ h.h2<<1), Lo: mix64(h.h2 ^ h.h1>>1)}
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
