package workload

import (
	"strconv"

	"cardpi/internal/dataset"
)

// QueryText renders a single-table query in the textual grammar ParseQuery
// accepts ("a = 5 AND b BETWEEN 2 AND 9"), so programmatically generated
// workloads can be replayed against the serve HTTP endpoints. Rendering a
// canonical query and re-parsing it round-trips exactly (see the
// canonical-form tests). Join queries have no textual grammar and render
// as the empty string.
func QueryText(q Query) string {
	return string(AppendQueryText(nil, q))
}

// AppendQueryText appends QueryText(q) to dst and returns the extended
// slice; with enough spare capacity in dst it performs no heap
// allocations. The text of Canonicalize(q) is the canonical text the cache
// key hashes (internal/cache KeyOf), so a line byte-equal to it can be
// looked up before it is parsed.
func AppendQueryText(dst []byte, q Query) []byte {
	if q.Join != nil {
		return dst
	}
	for i, p := range q.Preds {
		if i > 0 {
			dst = append(dst, " AND "...)
		}
		dst = append(dst, p.Col...)
		if p.Op == dataset.OpEq {
			dst = append(dst, " = "...)
			dst = strconv.AppendInt(dst, p.Lo, 10)
			continue
		}
		dst = append(dst, " BETWEEN "...)
		dst = strconv.AppendInt(dst, p.Lo, 10)
		dst = append(dst, " AND "...)
		dst = strconv.AppendInt(dst, p.Hi, 10)
	}
	return dst
}
