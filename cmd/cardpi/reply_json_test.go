package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// FuzzReplyEncode: for any estimateResponse or batchResponse the append
// encoder writes exactly the bytes of json.Encoder with SetIndent("", "  "),
// and those bytes decode back to the same fields. Where encoding/json
// refuses a value (NaN, ±Inf) both fail, with the same error. shape picks
// the value: 0 a single reply, 1 a batch with nil results, 2 a batch with
// empty results, 3 a batch of up to three variants of the reply.
func FuzzReplyEncode(f *testing.F) {
	seeds := []struct {
		query, bundle                        string
		est, estRows, lo, hi, loRows, hiRows float64
		rollCov                              float64
		trueRows                             int64
		flags                                uint8
	}{
		{"state = 3 AND county = 17", "", 0.0123, 246.9, 0.004, 0.05, 80, 1000, 0.91, 241, 0},
		{"<a href=\"x\">&amp;</a>", "acme/dmv@v2", 0.5, 1e4, 0, 1, 0, 20000, -1, 0, 0xf},
		{"line\u2028sep\u2029para", "tenant/table@v1", math.Copysign(0, -1), 0, 1e-7, 1e21, 1e-6, 9.99e20, 1, -1, 0x5},
		{"bad \xff\xfe utf8 \xc3", "", 5e-324, 2.2250738585072014e-308, 1e-320, 0.1, 0.2, 0.3, 0.5, math.MaxInt64, 0xa},
		{"ctl \x00\x01\x1f\x7f\b\f\n\r\t \\ /", "fallback:default", -1, -20000, 0, 0, 0, 0, 0, math.MinInt64, 0x3},
		{"nan", "", math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0},
		{"inf", "", 0, math.Inf(1), 0, 0, 0, 0, 0, 0, 0},
		{"rollcov inf", "", 0, 0, 0, 0, 0, 0, math.Inf(-1), 0, 0},
	}
	for i, s := range seeds {
		for shape := uint8(0); shape < 4; shape++ {
			f.Add(s.query, "resilient/lcp/mscn", "primary", s.bundle, s.est, s.estRows, s.lo, s.hi,
				s.loRows, s.hiRows, s.rollCov, s.trueRows, s.flags, shape, int16(i))
		}
	}
	f.Fuzz(func(t *testing.T, query, method, servedBy, bundle string,
		est, estRows, lo, hi, loRows, hiRows, rollCov float64, trueRows int64, flags, shape uint8, count int16) {
		r := estimateResponse{
			Query: query, Method: method, ServedBy: servedBy, Bundle: bundle,
			Degraded: flags&1 != 0, EstSel: est, EstRows: estRows,
			LoSel: lo, HiSel: hi, LoRows: loRows, HiRows: hiRows,
			TrueRows: trueRows, Covered: flags&2 != 0, Drifted: flags&4 != 0,
			RollCov: rollCov, Cached: flags&8 != 0,
		}
		switch shape % 4 {
		case 0:
			got, gotErr := appendEstimateReply(nil, &r)
			checkReplyBytes(t, &r, got, gotErr)
			if gotErr == nil {
				var back estimateResponse
				if err := json.Unmarshal(got, &back); err != nil {
					t.Fatalf("decode %q: %v", got, err)
				}
				checkSameReply(t, r, back)
			}
		default:
			b := batchResponse{Count: int(count)}
			switch shape % 4 {
			case 2:
				b.Results = []estimateResponse{}
			case 3:
				v := r
				v.Bundle, v.Cached, v.Query = "", !r.Cached, r.Query+"\u2029"
				b.Results = []estimateResponse{r, v, r}[:1+int(flags>>4)%3]
			}
			got, gotErr := appendBatchReply(nil, &b)
			checkReplyBytes(t, &b, got, gotErr)
			if gotErr == nil {
				var back batchResponse
				if err := json.Unmarshal(got, &back); err != nil {
					t.Fatalf("decode %q: %v", got, err)
				}
				if back.Count != b.Count || len(back.Results) != len(b.Results) || (back.Results == nil) != (b.Results == nil) {
					t.Fatalf("batch decoded to count %d, %d results; want %d, %d", back.Count, len(back.Results), b.Count, len(b.Results))
				}
				for i := range b.Results {
					checkSameReply(t, b.Results[i], back.Results[i])
				}
			}
		}
	})
}

// checkReplyBytes compares the append encoder's result for v against
// encodeJSON's (json.Encoder with SetIndent): the same bytes, or the same
// error.
func checkReplyBytes(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	var want bytes.Buffer
	wantErr := encodeJSON(&want, v)
	switch {
	case wantErr != nil || gotErr != nil:
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("encode errors differ: append encoder %v, encoding/json %v", gotErr, wantErr)
		}
	case !bytes.Equal(got, want.Bytes()):
		t.Fatalf("append encoder wrote\n%q\nencoding/json wrote\n%q", got, want.Bytes())
	}
}

// checkSameReply compares a decoded reply with the one encoded: floats bit
// for bit, and strings wherever they are valid UTF-8 (encoding/json writes
// invalid bytes as U+FFFD, so those cannot come back).
func checkSameReply(t *testing.T, want, got estimateResponse) {
	t.Helper()
	for _, s := range []struct{ want, got *string }{
		{&want.Query, &got.Query}, {&want.Method, &got.Method},
		{&want.ServedBy, &got.ServedBy}, {&want.Bundle, &got.Bundle},
	} {
		if !utf8.ValidString(*s.want) {
			*s.want, *s.got = "", ""
		}
	}
	for _, f := range []struct{ want, got *float64 }{
		{&want.EstSel, &got.EstSel}, {&want.EstRows, &got.EstRows},
		{&want.LoSel, &got.LoSel}, {&want.HiSel, &got.HiSel},
		{&want.LoRows, &got.LoRows}, {&want.HiRows, &got.HiRows},
		{&want.RollCov, &got.RollCov},
	} {
		if math.Float64bits(*f.want) != math.Float64bits(*f.got) {
			t.Fatalf("float decoded to %v, encoded %v", *f.got, *f.want)
		}
		*f.want, *f.got = 0, 0
	}
	if want != got {
		t.Fatalf("reply decoded to %+v, encoded %+v", got, want)
	}
}

// servebenchReply is a reply shaped like the ones servebench's miss
// workload reads: an lcp/mscn primary-served row of an unrouted request
// (about 460 bytes encoded).
func servebenchReply() estimateResponse {
	return estimateResponse{
		Query:    "state = 3 AND county = 17 AND model_year BETWEEN 40 AND 90",
		Method:   "resilient/lcp/mscn",
		ServedBy: "primary",
		EstSel:   0.012345678901234567, EstRows: 246.91357802469134,
		LoSel: 0.0041234567890123, HiSel: 0.05123456789012345,
		LoRows: 82.469135780246, HiRows: 1024.691357802469,
		TrueRows: 241, Covered: true, RollCov: 0.9123456789,
	}
}

// BenchmarkReplyEncode times the append encoder on one servebench-shaped
// /estimate reply; BenchmarkReplyEncodeJSON times encoding/json with
// SetIndent on the same reply. `make bench-json` records both in
// BENCH_pi.json.
func BenchmarkReplyEncode(b *testing.B) {
	r := servebenchReply()
	b.Run("servebench-shaped", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendEstimateReply(buf[:0], &r); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
}

func BenchmarkReplyEncodeJSON(b *testing.B) {
	r := servebenchReply()
	b.Run("servebench-shaped", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := encodeJSON(&buf, &r); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}
