package workload

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cardpi/internal/dataset"
)

// ParseQuery parses a SQL-ish conjunctive filter over one table into a
// Query. Accepted forms (keywords are case-insensitive; the optional
// "SELECT COUNT(*) FROM <table> WHERE" prefix is allowed and validated):
//
//	age = 30
//	age BETWEEN 20 AND 40
//	20 <= age AND age <= 40
//	age >= 20 AND age < 65 AND sex = 1
//
// Open-ended comparisons are closed using the column's domain bounds.
//
// ParseQuery runs on every serving row that is not a cache hit on its
// canonical text (a hit is answered before parsing), so it allocates
// exactly once on success: the returned predicate slice. Tokens and merged
// bounds live in stack buffers (see DESIGN.md "Query parser").
func ParseQuery(t *dataset.Table, input string) (Query, error) {
	var tokBuf [32]token
	toks, err := lex(input, tokBuf[:0])
	if err != nil {
		return Query{}, err
	}
	p := parser{toks: toks}
	if err := p.header(t.Name); err != nil {
		return Query{}, err
	}
	var boundBuf [8]bound
	bounds, err := p.conjunction(&scope{table: t}, boundBuf[:0])
	if err != nil || len(bounds) == 0 {
		return Query{}, err
	}
	preds := make([]dataset.Predicate, len(bounds))
	for i := range bounds {
		preds[i] = bounds[i].predicate()
	}
	return Query{Preds: preds}, nil
}

// ParseJoinQuery parses a SQL-ish select-project-join query over a star
// schema. The FROM clause lists the participating tables (the center table
// may be included or implied); predicates may qualify columns with a table
// name, and unqualified column names are resolved when unique across the
// participating tables. Join conditions are implicit (the schema's key
// edges), as in the templated workloads.
func ParseJoinQuery(s *dataset.Schema, input string) (Query, error) {
	var tokBuf [32]token
	toks, err := lex(input, tokBuf[:0])
	if err != nil {
		return Query{}, err
	}
	p := parser{toks: toks}
	tables, err := p.joinHeader(s)
	if err != nil {
		return Query{}, err
	}
	participating := map[string]*dataset.Table{s.Center.Name: s.Center}
	var joined []string
	for _, name := range tables {
		if name == s.Center.Name {
			continue
		}
		jt, ok := s.Joins[name]
		if !ok {
			return Query{}, fmt.Errorf("workload: schema has no table %q", name)
		}
		participating[name] = jt.Table
		joined = append(joined, name)
	}
	bounds, err := p.conjunction(&scope{participating: participating}, nil)
	if err != nil {
		return Query{}, err
	}
	preds := make(map[string][]dataset.Predicate)
	for i := range bounds {
		preds[bounds[i].table] = append(preds[bounds[i].table], bounds[i].predicate())
	}
	return Query{Join: &dataset.JoinQuery{Tables: joined, Preds: preds}}, nil
}

// --- lexer ---

type tokKind int

const (
	tokIdent tokKind = iota
	tokNumber
	tokString // 'quoted' or "quoted" literal, resolved via column dictionaries
	tokOp     // = <= >= < > ( ) , . *
)

// token is one lexeme; text is always a substring of the input.
type token struct {
	kind tokKind
	text string
}

// Byte classes of the lexer. The grammar reads its input a byte at a time
// and classifies byte b as the code point rune(b), so bytes >= 0x80 take
// their Latin-1 meaning (0xA0 is a space, 0xE9 a letter). byteClass is built
// from exactly those unicode calls, which keeps the accepted language
// identical while a lookup replaces the calls on the hot path.
const (
	clsSpace      uint8 = 1 << iota // unicode.IsSpace
	clsDigit                        // unicode.IsDigit
	clsIdentStart                   // unicode.IsLetter or '_'
	clsIdentPart                    // letter, digit or '_'
)

var byteClass = func() (cls [256]uint8) {
	for b := range cls {
		r := rune(b)
		if unicode.IsSpace(r) {
			cls[b] |= clsSpace
		}
		if unicode.IsDigit(r) {
			cls[b] |= clsDigit | clsIdentPart
		}
		if unicode.IsLetter(r) || r == '_' {
			cls[b] |= clsIdentStart | clsIdentPart
		}
	}
	return cls
}()

// lex appends input's tokens to toks and returns the extended slice. With
// enough spare capacity in toks it performs no heap allocations.
func lex(input string, toks []token) ([]token, error) {
	i := 0
	for i < len(input) {
		ch := input[i]
		cls := byteClass[ch]
		switch {
		case cls&clsSpace != 0:
			i++
		case cls&clsIdentStart != 0:
			j := i + 1
			for j < len(input) && byteClass[input[j]]&clsIdentPart != 0 {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j]})
			i = j
		case ch == '-' || cls&clsDigit != 0:
			j := i + 1
			for j < len(input) && byteClass[input[j]]&clsDigit != 0 {
				j++
			}
			if j == i+1 && ch == '-' {
				return nil, fmt.Errorf("workload: stray '-' at position %d", i)
			}
			toks = append(toks, token{tokNumber, input[i:j]})
			i = j
		case ch == '(' || ch == ')' || ch == ',' || ch == '.' || ch == '*' || ch == '=':
			toks = append(toks, token{tokOp, input[i : i+1]})
			i++
		case ch == '<' || ch == '>':
			n := 1
			if i+1 < len(input) && input[i+1] == '=' {
				n = 2
			}
			toks = append(toks, token{tokOp, input[i : i+n]})
			i += n
		case ch == '\'' || ch == '"':
			j := i + 1
			for j < len(input) && input[j] != ch {
				j++
			}
			if j >= len(input) {
				return nil, fmt.Errorf("workload: unterminated string literal at position %d", i)
			}
			toks = append(toks, token{tokString, input[i+1 : j]})
			i = j + 1
		default:
			return nil, fmt.Errorf("workload: unexpected character %q at position %d", rune(ch), i)
		}
	}
	return toks, nil
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *parser) acceptKeyword(kw string) bool {
	t, ok := p.peek()
	if ok && t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	t, ok := p.next()
	if !ok || t.kind != tokOp || t.text != op {
		return fmt.Errorf("workload: expected %q, got %q", op, t.text)
	}
	return nil
}

// header consumes an optional "SELECT COUNT(*) FROM <table> WHERE" prefix.
func (p *parser) header(tableName string) error {
	if !p.acceptKeyword("select") {
		return nil
	}
	if err := p.countStar(); err != nil {
		return err
	}
	if !p.acceptKeyword("from") {
		return fmt.Errorf("workload: expected FROM after SELECT COUNT(*)")
	}
	t, ok := p.next()
	if !ok || t.kind != tokIdent {
		return fmt.Errorf("workload: expected table name after FROM")
	}
	if !strings.EqualFold(t.text, tableName) {
		return fmt.Errorf("workload: query is over table %q, not %q", tableName, t.text)
	}
	if !p.acceptKeyword("where") {
		// A bare "SELECT COUNT(*) FROM t" has no predicates.
		if _, more := p.peek(); more {
			return fmt.Errorf("workload: expected WHERE")
		}
	}
	return nil
}

// joinHeader consumes "SELECT COUNT(*) FROM t1, t2, ... [WHERE]" (required
// for join queries — the FROM clause defines the template) and returns the
// table list.
func (p *parser) joinHeader(s *dataset.Schema) ([]string, error) {
	if !p.acceptKeyword("select") {
		return nil, fmt.Errorf("workload: join queries must start with SELECT COUNT(*) FROM ...")
	}
	if err := p.countStar(); err != nil {
		return nil, err
	}
	if !p.acceptKeyword("from") {
		return nil, fmt.Errorf("workload: expected FROM")
	}
	var tables []string
	for {
		t, ok := p.next()
		if !ok || t.kind != tokIdent {
			return nil, fmt.Errorf("workload: expected table name in FROM clause")
		}
		tables = append(tables, t.text)
		if nx, ok := p.peek(); ok && nx.kind == tokOp && nx.text == "," {
			p.pos++
			continue
		}
		break
	}
	if !p.acceptKeyword("where") {
		if _, more := p.peek(); more {
			return nil, fmt.Errorf("workload: expected WHERE")
		}
	}
	return tables, nil
}

func (p *parser) countStar() error {
	if !p.acceptKeyword("count") {
		return fmt.Errorf("workload: expected COUNT(*)")
	}
	if err := p.expectOp("("); err != nil {
		return err
	}
	if err := p.expectOp("*"); err != nil {
		return err
	}
	return p.expectOp(")")
}

// scope resolves (optional table qualifier, column name) to the column and
// its owning table name: over one table for ParseQuery, or over a join's
// participating tables for ParseJoinQuery.
type scope struct {
	table         *dataset.Table
	participating map[string]*dataset.Table
}

func (s *scope) resolve(table, col string) (*dataset.Column, string, error) {
	if t := s.table; t != nil {
		if table != "" && !strings.EqualFold(table, t.Name) {
			return nil, "", fmt.Errorf("workload: unknown table %q (query is over %q)", table, t.Name)
		}
		c := t.Column(col)
		if c == nil {
			return nil, "", fmt.Errorf("workload: table %q has no column %q", t.Name, col)
		}
		return c, t.Name, nil
	}
	if table != "" {
		t, ok := s.participating[table]
		if !ok {
			return nil, "", fmt.Errorf("workload: table %q not in FROM clause", table)
		}
		c := t.Column(col)
		if c == nil {
			return nil, "", fmt.Errorf("workload: table %q has no column %q", table, col)
		}
		return c, table, nil
	}
	var found *dataset.Column
	var owner string
	for name, t := range s.participating {
		if c := t.Column(col); c != nil {
			if found != nil {
				return nil, "", fmt.Errorf("workload: column %q is ambiguous; qualify it", col)
			}
			found, owner = c, name
		}
	}
	if found == nil {
		return nil, "", fmt.Errorf("workload: no participating table has column %q", col)
	}
	return found, owner, nil
}

// bound is the closed range a conjunction puts on one (table, column).
type bound struct {
	table, name string
	lo, hi      int64
}

// predicate renders the bound as the parser's output predicate: a point
// when lo == hi, a range otherwise.
func (b *bound) predicate() dataset.Predicate {
	if b.lo == b.hi {
		return dataset.Predicate{Col: b.name, Op: dataset.OpEq, Lo: b.lo}
	}
	return dataset.Predicate{Col: b.name, Op: dataset.OpRange, Lo: b.lo, Hi: b.hi}
}

// less orders bounds by (table, column). Within one table that is the
// order of their "table.column" keys; across tables only the per-table
// order is observable, since a join query's predicates are grouped by table.
func (b *bound) less(o *bound) bool {
	if b.table != o.table {
		return b.table < o.table
	}
	return b.name < o.name
}

// conjunction parses "pred AND pred AND ..." into dst, one bound per
// (table, column): repeated constraints on a column intersect into one
// range. The bounds come back sorted by (table, column). Queries
// have a handful of conjuncts, so a linear search merges and an insertion
// sort orders them; with enough spare capacity in dst neither allocates.
func (p *parser) conjunction(sc *scope, dst []bound) ([]bound, error) {
	if _, any := p.peek(); !any {
		return dst, nil
	}
	for {
		lo, hi, table, name, err := p.predicate(sc)
		if err != nil {
			return nil, err
		}
		merged := false
		for i := range dst {
			if b := &dst[i]; b.table == table && b.name == name {
				b.lo, b.hi = max(b.lo, lo), min(b.hi, hi)
				merged = true
				break
			}
		}
		if !merged {
			dst = append(dst, bound{table: table, name: name, lo: lo, hi: hi})
		}
		if !p.acceptKeyword("and") {
			break
		}
	}
	if t, extra := p.peek(); extra {
		return nil, fmt.Errorf("workload: unexpected trailing token %q", t.text)
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].less(&dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst, nil
}

// predicate parses one comparison and returns its closed range.
func (p *parser) predicate(sc *scope) (lo, hi int64, table, name string, err error) {
	var col *dataset.Column
	t, ok := p.peek()
	if !ok {
		return 0, 0, "", "", fmt.Errorf("workload: expected predicate")
	}
	if t.kind == tokNumber {
		// "20 <= age" or "20 < age" prefix form (possibly "20 <= age <= 40").
		p.pos++
		v, perr := parseInt(t.text)
		if perr != nil {
			return 0, 0, "", "", fmt.Errorf("workload: bad number %q", t.text)
		}
		op, ok := p.next()
		if !ok || op.kind != tokOp || (op.text != "<=" && op.text != "<") {
			return 0, 0, "", "", fmt.Errorf("workload: expected <= or < after number")
		}
		col, table, name, err = p.columnRef(sc)
		if err != nil {
			return 0, 0, "", "", err
		}
		lo = v
		if op.text == "<" {
			lo = v + 1
		}
		hi = domainMax(col)
		// Optional chained upper bound: "... <= 40".
		if nx, ok := p.peek(); ok && nx.kind == tokOp && (nx.text == "<=" || nx.text == "<") {
			p.pos++
			nt, ok := p.next()
			if !ok || nt.kind != tokNumber {
				return 0, 0, "", "", fmt.Errorf("workload: expected number after %q", nx.text)
			}
			u, perr := parseInt(nt.text)
			if perr != nil {
				return 0, 0, "", "", fmt.Errorf("workload: bad number %q", nt.text)
			}
			hi = u
			if nx.text == "<" {
				hi = u - 1
			}
		}
		return lo, hi, table, name, nil
	}

	// Column-first form.
	col, table, name, err = p.columnRef(sc)
	if err != nil {
		return 0, 0, "", "", err
	}
	if p.acceptKeyword("between") {
		a, err := p.number()
		if err != nil {
			return 0, 0, "", "", err
		}
		if !p.acceptKeyword("and") {
			return 0, 0, "", "", fmt.Errorf("workload: expected AND in BETWEEN")
		}
		b, err := p.number()
		if err != nil {
			return 0, 0, "", "", err
		}
		return a, b, table, name, nil
	}
	op, ok := p.next()
	if !ok || op.kind != tokOp {
		return 0, 0, "", "", fmt.Errorf("workload: expected comparison operator")
	}
	// String literal: only equality, resolved through the column dictionary
	// (columns loaded from CSV keep their original string values).
	if t, ok := p.peek(); ok && t.kind == tokString {
		p.pos++
		if op.text != "=" {
			return 0, 0, "", "", fmt.Errorf("workload: string literals support only '='")
		}
		code, ok := col.Code(t.text)
		if !ok {
			return 0, 0, "", "", fmt.Errorf("workload: column %q has no value %q", name, t.text)
		}
		return code, code, table, name, nil
	}
	v, err := p.number()
	if err != nil {
		return 0, 0, "", "", err
	}
	switch op.text {
	case "=":
		return v, v, table, name, nil
	case "<=":
		return domainMin(col), v, table, name, nil
	case "<":
		return domainMin(col), v - 1, table, name, nil
	case ">=":
		return v, domainMax(col), table, name, nil
	case ">":
		return v + 1, domainMax(col), table, name, nil
	default:
		return 0, 0, "", "", fmt.Errorf("workload: unsupported operator %q", op.text)
	}
}

// columnRef parses "[table .] column".
func (p *parser) columnRef(sc *scope) (*dataset.Column, string, string, error) {
	t, ok := p.next()
	if !ok || t.kind != tokIdent {
		return nil, "", "", fmt.Errorf("workload: expected column name, got %q", t.text)
	}
	table, name := "", t.text
	if nx, ok := p.peek(); ok && nx.kind == tokOp && nx.text == "." {
		p.pos++
		ct, ok := p.next()
		if !ok || ct.kind != tokIdent {
			return nil, "", "", fmt.Errorf("workload: expected column after %q.", t.text)
		}
		table, name = t.text, ct.text
	}
	col, owner, err := sc.resolve(table, name)
	if err != nil {
		return nil, "", "", err
	}
	return col, owner, name, nil
}

func (p *parser) number() (int64, error) {
	t, ok := p.next()
	if !ok || t.kind != tokNumber {
		return 0, fmt.Errorf("workload: expected number, got %q", t.text)
	}
	return parseInt(t.text)
}

// parseInt is strconv.ParseInt(s, 10, 64) for a number token, which the
// lexer guarantees is an optional '-' and at least one ASCII digit. Up to 18
// digits cannot overflow int64, so they are converted inline; longer tokens
// go through strconv, which also words the out-of-range error.
func parseInt(s string) (int64, error) {
	digits := s
	if s[0] == '-' {
		digits = s[1:]
	}
	if len(digits) > 18 {
		return strconv.ParseInt(s, 10, 64)
	}
	var v int64
	for i := 0; i < len(digits); i++ {
		v = v*10 + int64(digits[i]-'0')
	}
	if s[0] == '-' {
		v = -v
	}
	return v, nil
}

func domainMin(c *dataset.Column) int64 {
	if c.Type == dataset.Categorical {
		return 0
	}
	return c.Min
}

func domainMax(c *dataset.Column) int64 {
	if c.Type == dataset.Categorical {
		return c.DomainSize - 1
	}
	return c.Max
}
