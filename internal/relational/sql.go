package relational

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"polystorepp/internal/cast"
)

// This file implements the SQL-subset frontend:
//
//	SELECT <items|*> FROM <table>
//	  [JOIN <table> ON <col> = <col>]...
//	  [WHERE <expr>]
//	  [GROUP BY <cols>]
//	  [ORDER BY <col> [DESC], ...]
//	  [LIMIT <n>]
//
// with aggregates COUNT(*), COUNT(col), SUM, AVG, MIN, MAX. The parser
// produces a SelectStmt AST which the planner lowers to the Volcano
// operators, choosing index scans where the WHERE clause permits.

// ErrSQL wraps parse failures.
var ErrSQL = errors.New("relational: sql")

// SelectItem is one output column request.
type SelectItem struct {
	Expr Expr // nil when Agg is set
	Agg  *AggSpec
	As   string
}

// JoinClause is one JOIN ... ON a = b.
type JoinClause struct {
	Table    string
	LeftCol  string
	RightCol string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// SelectStmt is the parsed form of a query.
type SelectStmt struct {
	Items   []SelectItem
	Star    bool
	From    string
	Joins   []JoinClause
	Where   Expr
	GroupBy []string
	OrderBy []OrderItem
	Limit   int // -1 when absent
	// LimitSlot is the bind-vector slot holding Limit when the statement was
	// parsed lifted (ParseLifted), else -1.
	LimitSlot int
	// ValueShaped reports that a literal's value, not only its type, is part
	// of the statement: a WHERE clause that is one literal, kept as a Const,
	// or an unnamed select item, named after its literals as written. A
	// statement differing from it only in such a constant parses differently.
	ValueShaped bool
}

// --- Lexer ---

type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokNumber
	tokString
	tokSymbol
	tokEOF
)

type token struct {
	kind tokKind
	text string
}

// lexer cuts a statement into tokens whose text is a substring of it, so
// lexing allocates nothing but a string literal holding invalid UTF-8. It
// cannot fail: Shape and parse refuse an unterminated string (checkQuotes)
// before the first token, and every other byte is some token.
type lexer struct {
	src string
	pos int
	// operand reports whether the last token ends an operand — a column, a
	// literal or a closing parenthesis. A '-' after one is the minus
	// operator (id-1); anywhere else, before a digit, it is the sign of a
	// number (id > -1, LIMIT -5).
	operand bool
}

func (l *lexer) next() token {
	t := l.scan()
	l.operand = t.kind == tokNumber || t.kind == tokString || (t.kind == tokSymbol && t.text == ")") ||
		(t.kind == tokIdent && !keyword(t.text) && !strings.EqualFold(t.text, "select"))
	return t
}

func (l *lexer) scan() token {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && (isIdentStart(l.src[l.pos]) || isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos]}
	case isDigit(c) || (c == '-' && !l.operand && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos]}
	case c == '\'':
		start := l.pos + 1
		end := strings.IndexByte(l.src[start:], '\'') // there is one: checkQuotes
		s := l.src[start : start+end]
		l.pos = start + end + 1
		if !utf8.ValidString(s) {
			s = string([]rune(s)) // each invalid byte reads as U+FFFD
		}
		return token{kind: tokString, text: s}
	default:
		// Multi-char operators first.
		if l.pos+1 < len(l.src) {
			switch two := l.src[l.pos : l.pos+2]; two {
			case "<=", ">=", "!=", "<>":
				l.pos += 2
				return token{kind: tokSymbol, text: two}
			}
		}
		r, w := utf8.DecodeRuneInString(l.src[l.pos:])
		text := l.src[l.pos : l.pos+w]
		if r == utf8.RuneError && w == 1 {
			text = "\uFFFD"
		}
		l.pos += w
		return token{kind: tokSymbol, text: text}
	}
}

// checkQuotes refuses a statement holding an unterminated string literal.
// The grammar has no escapes, and no token but a string holds a quote, so
// every ' outside a string opens one and the next ' closes it: a string is
// left open exactly when the statement holds an odd number of them.
func checkQuotes(sql string) error {
	if strings.Count(sql, "'")%2 != 0 {
		return fmt.Errorf("%w: unterminated string", ErrSQL)
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// keyword reports whether an identifier is a word reserved after SELECT, in
// any case.
func keyword(text string) bool {
	var buf [6]byte
	if len(text) > len(buf) {
		return false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return reservedAfterSelect[string(buf[:len(text)])]
}

// Shape lexes a statement once, with the parser's own lexer, into its shape
// key and its constants. It appends to dst the token stream with each literal
// replaced by its type class, and to binds each literal converted as the
// parser converts it (the LIMIT count as LIMIT does), in text order. A
// literal the parser would refuse — a malformed number, a negative LIMIT — is
// an error here too.
//
// Two statements with one key parse alike but for the constants their
// literals stand for, provided one of them parses with every literal lifted
// (ParseLifted's binds equal these) and no literal's value shaping it
// (SelectStmt.ValueShaped): the parser reads no literal's value but to convert
// it, name a column after it, or keep a WHERE that is only a literal. Shape
// allocates nothing per token beyond growing dst and binds.
func Shape(dst []byte, sql string, binds []any) ([]byte, []any, error) {
	if err := checkQuotes(sql); err != nil {
		return dst, binds, err
	}
	l := lexer{src: sql}
	limit := false // the last token was the LIMIT keyword
	for {
		t := l.next()
		var v any
		var err error
		switch t.kind {
		case tokEOF:
			return dst, binds, nil
		case tokIdent:
			if b, ok := boolLiteral(t.text); ok {
				dst, v = append(dst, 'B'), b
			} else {
				dst = append(append(append(dst, 'I'), t.text...), ' ')
			}
		case tokSymbol:
			dst = append(append(dst, 'S'), t.text...)
		case tokString:
			dst, v = append(dst, 'Q'), t.text
		case tokNumber:
			if limit {
				n, err := limitCount(t.text)
				if err != nil {
					return dst, binds, err
				}
				v = int64(n)
			} else if v, _, err = numberLiteral(t.text); err != nil {
				return dst, binds, err
			}
			if _, ok := v.(float64); ok {
				dst = append(dst, 'F')
			} else {
				dst = append(dst, 'N')
			}
		}
		if v != nil {
			binds = append(binds, v)
		}
		limit = t.kind == tokIdent && strings.EqualFold(t.text, "limit")
	}
}

// boolLiteral reports whether an identifier is the literal true or false,
// and which.
func boolLiteral(text string) (value, ok bool) {
	switch {
	case strings.EqualFold(text, "true"):
		return true, true
	case strings.EqualFold(text, "false"):
		return false, true
	}
	return false, false
}

// numberLiteral converts a number token: a float when it has a point or an
// exponent, else an int64.
func numberLiteral(text string) (any, cast.Type, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: bad number %q", ErrSQL, text)
		}
		return f, cast.Float64, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: bad number %q", ErrSQL, text)
	}
	return i, cast.Int64, nil
}

// limitCount converts LIMIT's number token.
func limitCount(text string) (int, error) {
	n, err := strconv.Atoi(text)
	if err != nil {
		return 0, fmt.Errorf("%w: bad LIMIT %q", ErrSQL, text)
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: LIMIT wants a non-negative number, got %d", ErrSQL, n)
	}
	return n, nil
}

// --- Parser ---

type parser struct {
	lex  lexer
	cur  token
	peek token // the token after cur once peekTok read it, else kind 0
	// lift turns each literal into a Param for a new slot of binds.
	lift  bool
	binds []any
}

func (p *parser) advance() {
	if p.peek.kind != 0 {
		p.cur, p.peek = p.peek, token{}
		return
	}
	p.cur = p.lex.next()
}

func (p *parser) peekTok() token {
	if p.peek.kind == 0 {
		p.peek = p.lex.next()
	}
	return p.peek
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, kw)
}

// isSymbol reports whether the current token is the symbol sym.
func (p *parser) isSymbol(sym string) bool {
	return p.cur.kind == tokSymbol && p.cur.text == sym
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return fmt.Errorf("%w: expected %s, got %q", ErrSQL, kw, p.cur.text)
	}
	p.advance()
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.isSymbol(sym) {
		return fmt.Errorf("%w: expected %q, got %q", ErrSQL, sym, p.cur.text)
	}
	p.advance()
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur.kind != tokIdent {
		return "", fmt.Errorf("%w: expected identifier, got %q", ErrSQL, p.cur.text)
	}
	s := p.cur.text
	p.advance()
	return s, nil
}

var aggNames = map[string]AggFn{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

var reservedAfterSelect = map[string]bool{
	"from": true, "where": true, "group": true, "order": true, "limit": true,
	"join": true, "on": true, "by": true, "as": true, "and": true, "or": true,
	"not": true, "asc": true, "desc": true,
}

// Parse parses one SELECT statement; its literals are Consts.
func Parse(sql string) (*SelectStmt, error) {
	stmt, _, err := parse(sql, false, nil)
	return stmt, err
}

// ParseLifted parses one SELECT statement with its literals lifted into a
// bind vector: each literal of the select list and the WHERE clause becomes a
// Param, and LIMIT's count a LimitSlot, for a slot appended to binds, in the
// order the literals appear in the text. The one literal kept is a WHERE
// clause that is nothing else: it has no shape to share. It returns binds
// extended by the statement's constants, and reports in the statement's
// ValueShaped whether a literal's value shaped it all the same.
func ParseLifted(sql string, binds []any) (*SelectStmt, []any, error) {
	return parse(sql, true, binds)
}

func parse(sql string, lift bool, binds []any) (*SelectStmt, []any, error) {
	if err := checkQuotes(sql); err != nil {
		return nil, nil, err
	}
	p := &parser{lex: lexer{src: sql}, lift: lift, binds: binds}
	p.advance()
	stmt, err := p.selectStmt()
	if err != nil {
		return nil, nil, err
	}
	return stmt, p.binds, nil
}

// literal returns the expression for one literal of the statement: a Const,
// or when lifting, a Param for a new slot holding it.
func (p *parser) literal(v any, t cast.Type) Expr {
	if !p.lift {
		return Const{V: v}
	}
	p.binds = append(p.binds, v)
	return Param{Slot: len(p.binds) - 1, Type: t}
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	var err error
	stmt := &SelectStmt{Limit: -1, LimitSlot: -1}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if p.isSymbol("*") {
		stmt.Star = true
		p.advance()
	} else {
		for {
			item, err := p.parseSelectItem(stmt)
			if err != nil {
				return nil, err
			}
			stmt.Items = append(stmt.Items, item)
			if !p.isSymbol(",") {
				break
			}
			p.advance()
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if stmt.From, err = p.ident(); err != nil {
		return nil, err
	}
	for p.isKeyword("join") {
		p.advance()
		var jc JoinClause
		if jc.Table, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		if jc.LeftCol, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		if jc.RightCol, err = p.ident(); err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, jc)
	}
	if p.isKeyword("where") {
		p.advance()
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
		// A lone literal: binding would hand the filter a bare constant,
		// which is no predicate. It was the last slot taken.
		if prm, ok := stmt.Where.(Param); ok {
			stmt.Where, p.binds = Const{V: p.binds[prm.Slot]}, p.binds[:prm.Slot]
			stmt.ValueShaped = true
		}
	}
	if p.isKeyword("group") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if !p.isSymbol(",") {
				break
			}
			p.advance()
		}
	}
	if p.isKeyword("order") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			var oi OrderItem
			if oi.Col, err = p.ident(); err != nil {
				return nil, err
			}
			oi.Desc = p.isKeyword("desc")
			if oi.Desc || p.isKeyword("asc") {
				p.advance()
			}
			stmt.OrderBy = append(stmt.OrderBy, oi)
			if !p.isSymbol(",") {
				break
			}
			p.advance()
		}
	}
	if p.isKeyword("limit") {
		p.advance()
		if p.cur.kind != tokNumber {
			return nil, fmt.Errorf("%w: LIMIT wants a number", ErrSQL)
		}
		if stmt.Limit, err = limitCount(p.cur.text); err != nil {
			return nil, err
		}
		if p.lift {
			stmt.LimitSlot = len(p.binds)
			p.binds = append(p.binds, int64(stmt.Limit))
		}
		p.advance()
	}
	if p.cur.kind != tokEOF {
		return nil, fmt.Errorf("%w: trailing input at %q", ErrSQL, p.cur.text)
	}
	return stmt, nil
}

func (p *parser) parseSelectItem(stmt *SelectStmt) (SelectItem, error) {
	if p.cur.kind == tokIdent {
		if fn, ok := aggNames[strings.ToLower(p.cur.text)]; ok {
			if nxt := p.peekTok(); nxt.kind == tokSymbol && nxt.text == "(" {
				return p.parseAgg(fn)
			}
		}
	}
	slots := len(p.binds)
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	as := ""
	if cr, ok := e.(ColRef); ok {
		as = BaseName(cr.Name)
	}
	if p.isKeyword("as") {
		p.advance()
		if as, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	}
	if as == "" {
		// Named after the expression as written, literals and all: a
		// lifted statement returns the columns the literal one does.
		named := e
		if p.lift {
			if named, err = bindExpr(e, p.binds); err != nil {
				return SelectItem{}, err
			}
			stmt.ValueShaped = stmt.ValueShaped || len(p.binds) > slots
		}
		as = named.String()
	}
	return SelectItem{Expr: e, As: as}, nil
}

// parseAgg parses an aggregate call whose name is the current token.
func (p *parser) parseAgg(fn AggFn) (SelectItem, error) {
	p.advance() // the name
	p.advance() // "("
	spec := AggSpec{Fn: fn}
	if p.isSymbol("*") {
		if fn != AggCount {
			return SelectItem{}, fmt.Errorf("%w: %s(*) not allowed", ErrSQL, fn)
		}
		p.advance()
	} else {
		col, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		spec.Col = col
	}
	if err := p.expectSymbol(")"); err != nil {
		return SelectItem{}, err
	}
	spec.As = fmt.Sprintf("%s_%s", spec.Fn, BaseName(spec.Col))
	if spec.Col == "" {
		spec.As = "count"
	}
	if p.isKeyword("as") {
		p.advance()
		var err error
		if spec.As, err = p.ident(); err != nil {
			return SelectItem{}, err
		}
	}
	return SelectItem{Agg: &spec, As: spec.As}, nil
}

// Expression precedence: OR < AND < NOT < comparison < additive < mult.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	for err == nil && p.isKeyword("or") {
		p.advance()
		var r Expr
		r, err = p.parseAnd()
		l = Bin{Op: OpOr, L: l, R: r}
	}
	return l, err
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	for err == nil && p.isKeyword("and") {
		p.advance()
		var r Expr
		r, err = p.parseNot()
		l = Bin{Op: OpAnd, L: l, R: r}
	}
	return l, err
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("not") {
		p.advance()
		e, err := p.parseNot()
		return Not{E: e}, err
	}
	return p.parseCmp()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil || p.cur.kind != tokSymbol {
		return l, err
	}
	op, ok := cmpOps[p.cur.text]
	if !ok {
		return l, nil
	}
	p.advance()
	r, err := p.parseAdd()
	return Bin{Op: op, L: l, R: r}, err
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	for err == nil && (p.isSymbol("+") || p.isSymbol("-")) {
		op := OpAdd
		if p.cur.text == "-" {
			op = OpSub
		}
		p.advance()
		var r Expr
		r, err = p.parseMul()
		l = Bin{Op: op, L: l, R: r}
	}
	return l, err
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	for err == nil && (p.isSymbol("*") || p.isSymbol("/")) {
		op := OpMul
		if p.cur.text == "/" {
			op = OpDiv
		}
		p.advance()
		var r Expr
		r, err = p.parsePrimary()
		l = Bin{Op: op, L: l, R: r}
	}
	return l, err
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur
	switch {
	case t.kind == tokNumber:
		p.advance()
		v, typ, err := numberLiteral(t.text)
		if err != nil {
			return nil, err
		}
		return p.literal(v, typ), nil
	case t.kind == tokString:
		p.advance()
		return p.literal(t.text, cast.String), nil
	case t.kind == tokIdent:
		if b, ok := boolLiteral(t.text); ok {
			p.advance()
			return p.literal(b, cast.Bool), nil
		}
		if keyword(t.text) {
			return nil, fmt.Errorf("%w: unexpected keyword %q in expression", ErrSQL, t.text)
		}
		p.advance()
		return ColRef{Name: t.text}, nil
	case p.isSymbol("("):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectSymbol(")")
	}
	return nil, fmt.Errorf("%w: unexpected token %q", ErrSQL, t.text)
}
