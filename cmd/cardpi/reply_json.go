package main

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The /estimate and /estimate/batch JSON replies are appended by hand into
// the pooled request buffer instead of going through encoding/json's
// reflection and its indent pass. The bytes are exactly what
// json.NewEncoder with SetIndent("", "  ") writes for the same value:
// HTML-escaped strings, invalid UTF-8 as U+FFFD, U+2028/U+2029 escaped,
// omitempty members dropped, encoding/json's float format, and a trailing
// newline. A NaN or ±Inf field fails the encode with encoding/json's own
// error. FuzzReplyEncode checks all of this against encoding/json.

// appendEstimateReply appends the /estimate reply for r to dst.
func appendEstimateReply(dst []byte, r *estimateResponse) ([]byte, error) {
	dst, err := appendEstimateObject(dst, r, 0)
	if err != nil {
		return dst, err
	}
	return append(dst, '\n'), nil
}

// appendBatchReply appends the /estimate/batch reply for b to dst.
func appendBatchReply(dst []byte, b *batchResponse) ([]byte, error) {
	dst = append(dst, '{')
	dst = strconv.AppendInt(appendKey(dst, 1, "count", true), int64(b.Count), 10)
	dst = appendKey(dst, 1, "results", false)
	switch {
	case b.Results == nil:
		dst = append(dst, "null"...)
	case len(b.Results) == 0:
		dst = append(dst, '[', ']')
	default:
		dst = append(dst, '[')
		for i := range b.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendNewline(dst, 2)
			var err error
			if dst, err = appendEstimateObject(dst, &b.Results[i], 2); err != nil {
				return dst, err
			}
		}
		dst = append(appendNewline(dst, 1), ']')
	}
	return append(appendNewline(dst, 0), '}', '\n'), nil
}

// appendEstimateObject appends r as an object whose closing brace sits at
// the given indent depth, members in estimateResponse's field order.
func appendEstimateObject(dst []byte, r *estimateResponse, depth int) ([]byte, error) {
	d := depth + 1
	dst = append(dst, '{')
	dst = appendJSONString(appendKey(dst, d, "query", true), r.Query)
	dst = appendJSONString(appendKey(dst, d, "method", false), r.Method)
	dst = appendJSONString(appendKey(dst, d, "served_by", false), r.ServedBy)
	if r.Bundle != "" {
		dst = appendJSONString(appendKey(dst, d, "bundle", false), r.Bundle)
	}
	dst = strconv.AppendBool(appendKey(dst, d, "degraded", false), r.Degraded)
	floats := [...]struct {
		name string
		v    float64
	}{
		{"estimate_selectivity", r.EstSel},
		{"estimate_rows", r.EstRows},
		{"interval_lo_selectivity", r.LoSel},
		{"interval_hi_selectivity", r.HiSel},
		{"interval_lo_rows", r.LoRows},
		{"interval_hi_rows", r.HiRows},
	}
	var err error
	for _, f := range floats {
		if dst, err = appendJSONFloat(appendKey(dst, d, f.name, false), f.v); err != nil {
			return dst, err
		}
	}
	dst = strconv.AppendInt(appendKey(dst, d, "true_rows", false), r.TrueRows, 10)
	dst = strconv.AppendBool(appendKey(dst, d, "covered", false), r.Covered)
	dst = strconv.AppendBool(appendKey(dst, d, "drifted", false), r.Drifted)
	if dst, err = appendJSONFloat(appendKey(dst, d, "rolling_coverage", false), r.RollCov); err != nil {
		return dst, err
	}
	if r.Cached {
		dst = strconv.AppendBool(appendKey(dst, d, "cached", false), true)
	}
	return append(appendNewline(dst, depth), '}'), nil
}

// appendKey starts an object member at the given depth: the comma after the
// previous member (unless first), the line break and indent, the key, and
// ": ". Keys are plain ASCII and need no escaping.
func appendKey(dst []byte, depth int, key string, first bool) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = append(appendNewline(dst, depth), '"')
	dst = append(dst, key...)
	return append(dst, '"', ':', ' ')
}

// appendNewline appends a line break and depth levels of two-space indent.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// appendJSONFloat appends f in encoding/json's format: the shortest
// representation that round-trips, in exponent form below 1e-6 and from
// 1e21 on with a one-digit negative exponent left unpadded (1e-7, not
// 1e-07), and -0 for negative zero. NaN and ±Inf are refused with the error
// encoding/json returns.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// jsonSafe marks the ASCII bytes a JSON string carries verbatim with
// encoding/json's HTML escaping on: printable ASCII except '"', '\\', '<',
// '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendJSONString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
