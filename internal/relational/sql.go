package relational

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

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

type lexer struct {
	src []rune
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && (isIdentStart(l.src[l.pos]) || isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokIdent, text: string(l.src[start:l.pos])}, nil
	case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		start := l.pos
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			l.pos++
		}
		return token{kind: tokNumber, text: string(l.src[start:l.pos])}, nil
	case c == '\'':
		l.pos++
		start := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '\'' {
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("%w: unterminated string", ErrSQL)
		}
		s := string(l.src[start:l.pos])
		l.pos++
		return token{kind: tokString, text: s}, nil
	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = string(l.src[l.pos : l.pos+2])
		}
		switch two {
		case "<=", ">=", "!=", "<>":
			l.pos += 2
			return token{kind: tokSymbol, text: two}, nil
		}
		l.pos++
		return token{kind: tokSymbol, text: string(c)}, nil
	}
}

func isIdentStart(c rune) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isDigit(c rune) bool { return c >= '0' && c <= '9' }

// --- Parser ---

type parser struct {
	lex  *lexer
	cur  token
	peek *token
	// lift turns each literal into a Param for a new slot of binds.
	lift  bool
	binds []any
}

func newParser(sql string, lift bool, binds []any) (*parser, error) {
	p := &parser{lex: &lexer{src: []rune(sql)}, lift: lift, binds: binds}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.cur = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) peekTok() (token, error) {
	if p.peek == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return fmt.Errorf("%w: expected %s, got %q", ErrSQL, kw, p.cur.text)
	}
	return p.advance()
}

func (p *parser) expectSymbol(sym string) error {
	if p.cur.kind != tokSymbol || p.cur.text != sym {
		return fmt.Errorf("%w: expected %q, got %q", ErrSQL, sym, p.cur.text)
	}
	return p.advance()
}

func (p *parser) ident() (string, error) {
	if p.cur.kind != tokIdent {
		return "", fmt.Errorf("%w: expected identifier, got %q", ErrSQL, p.cur.text)
	}
	s := p.cur.text
	if err := p.advance(); err != nil {
		return "", err
	}
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
// extended by the statement's constants.
func ParseLifted(sql string, binds []any) (*SelectStmt, []any, error) {
	return parse(sql, true, binds)
}

func parse(sql string, lift bool, binds []any) (*SelectStmt, []any, error) {
	p, err := newParser(sql, lift, binds)
	if err != nil {
		return nil, nil, err
	}
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
	if p.cur.kind == tokSymbol && p.cur.text == "*" {
		stmt.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			stmt.Items = append(stmt.Items, item)
			if p.cur.kind == tokSymbol && p.cur.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	stmt.From, err = p.ident()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("join") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var jc JoinClause
		jc.Table, err = p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		jc.LeftCol, err = p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		jc.RightCol, err = p.ident()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, jc)
	}
	if p.isKeyword("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		stmt.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		// A lone literal: binding would hand the filter a bare constant,
		// which is no predicate. It was the last slot taken.
		if prm, ok := stmt.Where.(Param); ok {
			stmt.Where, p.binds = Const{V: p.binds[prm.Slot]}, p.binds[:prm.Slot]
		}
	}
	if p.isKeyword("group") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, c)
			if p.cur.kind == tokSymbol && p.cur.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			var oi OrderItem
			oi.Col, err = p.ident()
			if err != nil {
				return nil, err
			}
			if p.isKeyword("desc") {
				oi.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isKeyword("asc") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			stmt.OrderBy = append(stmt.OrderBy, oi)
			if p.cur.kind == tokSymbol && p.cur.text == "," {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if p.isKeyword("limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.kind != tokNumber {
			return nil, fmt.Errorf("%w: LIMIT wants a number", ErrSQL)
		}
		n, err := strconv.Atoi(p.cur.text)
		if err != nil {
			return nil, fmt.Errorf("%w: bad LIMIT %q", ErrSQL, p.cur.text)
		}
		stmt.Limit = n
		if p.lift {
			stmt.LimitSlot = len(p.binds)
			p.binds = append(p.binds, int64(n))
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.cur.kind != tokEOF {
		return nil, fmt.Errorf("%w: trailing input at %q", ErrSQL, p.cur.text)
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// Aggregate?
	if p.cur.kind == tokIdent {
		if fn, ok := aggNames[strings.ToLower(p.cur.text)]; ok {
			nxt, err := p.peekTok()
			if err != nil {
				return SelectItem{}, err
			}
			if nxt.kind == tokSymbol && nxt.text == "(" {
				if err := p.advance(); err != nil { // consume name
					return SelectItem{}, err
				}
				if err := p.advance(); err != nil { // consume "("
					return SelectItem{}, err
				}
				spec := AggSpec{Fn: fn}
				if p.cur.kind == tokSymbol && p.cur.text == "*" {
					if fn != AggCount {
						return SelectItem{}, fmt.Errorf("%w: %s(*) not allowed", ErrSQL, fn)
					}
					if err := p.advance(); err != nil {
						return SelectItem{}, err
					}
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
				as := fmt.Sprintf("%s_%s", spec.Fn, BaseName(spec.Col))
				if spec.Col == "" {
					as = "count"
				}
				if p.isKeyword("as") {
					if err := p.advance(); err != nil {
						return SelectItem{}, err
					}
					as, err = p.ident()
					if err != nil {
						return SelectItem{}, err
					}
				}
				spec.As = as
				return SelectItem{Agg: &spec, As: as}, nil
			}
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	as := ""
	if cr, ok := e.(ColRef); ok {
		as = BaseName(cr.Name)
	}
	if p.isKeyword("as") {
		if err := p.advance(); err != nil {
			return SelectItem{}, err
		}
		as, err = p.ident()
		if err != nil {
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
		}
		as = named.String()
	}
	return SelectItem{Expr: e, As: as}, nil
}

// Expression precedence: OR < AND < NOT < comparison < additive < mult.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.isKeyword("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.cur.kind == tokSymbol {
		if op, ok := cmpOps[p.cur.text]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return Bin{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokSymbol && (p.cur.text == "+" || p.cur.text == "-") {
		op := OpAdd
		if p.cur.text == "-" {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokSymbol && (p.cur.text == "*" || p.cur.text == "/") {
		op := OpMul
		if p.cur.text == "/" {
			op = OpDiv
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.cur.kind {
	case tokNumber:
		text := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad number %q", ErrSQL, text)
			}
			return p.literal(f, cast.Float64), nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad number %q", ErrSQL, text)
		}
		return p.literal(i, cast.Int64), nil
	case tokString:
		s := p.cur.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.literal(s, cast.String), nil
	case tokIdent:
		text := p.cur.text
		lower := strings.ToLower(text)
		if lower == "true" || lower == "false" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return p.literal(lower == "true", cast.Bool), nil
		}
		if reservedAfterSelect[lower] {
			return nil, fmt.Errorf("%w: unexpected keyword %q in expression", ErrSQL, text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return ColRef{Name: text}, nil
	case tokSymbol:
		if p.cur.text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("%w: unexpected token %q", ErrSQL, p.cur.text)
}
