package streamql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/dsms"
	"repro/internal/expr"
	"repro/internal/stream"
)

// sqlToken is a lexed StreamSQL token.
type sqlToken struct {
	text string // original spelling
	pos  int    // byte offset in source
}

// tokenize splits a script into word and punctuation tokens, keeping
// byte offsets so WHERE conditions can be re-sliced from the source and
// handed to the expr parser.
func tokenize(src string) ([]sqlToken, error) {
	var out []sqlToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			// Line comment.
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.ContainsRune("(),;[].*", rune(c)):
			out = append(out, sqlToken{text: string(c), pos: i})
			i++
		case c == '<' || c == '>' || c == '=' || c == '!':
			start := i
			i++
			if i < len(src) && (src[i] == '=' || (c == '<' && src[i] == '>')) {
				i++
			}
			out = append(out, sqlToken{text: src[start:i], pos: start})
		case c == '\'':
			start := i
			i++
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			out = append(out, sqlToken{text: src[start:i], pos: start})
		default:
			start := i
			for i < len(src) && !unicode.IsSpace(rune(src[i])) &&
				!strings.ContainsRune("(),;[].*<>=!'", rune(src[i])) {
				i++
			}
			if i == start {
				return nil, fmt.Errorf("streamql: unexpected character %q at %d", c, i)
			}
			out = append(out, sqlToken{text: src[start:i], pos: start})
		}
	}
	return out, nil
}

// Parse parses a StreamSQL script.
func Parse(src string) (*Script, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{src: src, toks: toks}
	script := &Script{}
	for !p.eof() {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		script.Statements = append(script.Statements, st)
	}
	if len(script.Statements) == 0 {
		return nil, fmt.Errorf("streamql: empty script")
	}
	return script, nil
}

type sqlParser struct {
	src  string
	toks []sqlToken
	i    int
}

func (p *sqlParser) eof() bool { return p.i >= len(p.toks) }

func (p *sqlParser) peek() string {
	if p.eof() {
		return ""
	}
	return p.toks[p.i].text
}

func (p *sqlParser) peekUpper() string { return strings.ToUpper(p.peek()) }

func (p *sqlParser) next() sqlToken {
	if p.eof() {
		return sqlToken{text: "", pos: len(p.src)}
	}
	t := p.toks[p.i]
	p.i++
	return t
}

func (p *sqlParser) expect(upper string) (sqlToken, error) {
	if p.eof() {
		return sqlToken{}, fmt.Errorf("streamql: unexpected end of script, expected %q", upper)
	}
	t := p.next()
	if strings.ToUpper(t.text) != upper {
		return t, fmt.Errorf("streamql: expected %q at %d, got %q", upper, t.pos, t.text)
	}
	return t, nil
}

func (p *sqlParser) expectIdent() (string, error) {
	if p.eof() {
		return "", fmt.Errorf("streamql: unexpected end of script, expected identifier")
	}
	t := p.next()
	if !isSQLIdent(t.text) {
		return "", fmt.Errorf("streamql: expected identifier at %d, got %q", t.pos, t.text)
	}
	return t.text, nil
}

// isSQLIdent accepts letters, digits and underscores, plus '@' after
// the first character: a replicated partitioned stream's partition p
// lives on the shards as the sub-stream "name@p", and the script that
// deploys a query part there names it.
func isSQLIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) || (i > 0 && (unicode.IsDigit(r) || r == '@')) {
			continue
		}
		return false
	}
	return true
}

func (p *sqlParser) parseStatement() (Statement, error) {
	switch p.peekUpper() {
	case "CREATE":
		return p.parseCreate()
	case "SELECT":
		return p.parseSelect()
	default:
		t := p.next()
		return nil, fmt.Errorf("streamql: unexpected token %q at %d", t.text, t.pos)
	}
}

func (p *sqlParser) parseCreate() (Statement, error) {
	if _, err := p.expect("CREATE"); err != nil {
		return nil, err
	}
	switch p.peekUpper() {
	case "INPUT":
		p.next()
		if _, err := p.expect("STREAM"); err != nil {
			return nil, err
		}
		return p.parseCreateInput()
	case "OUTPUT":
		p.next()
		if _, err := p.expect("STREAM"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &CreateStream{Name: name, Output: true}, nil
	case "STREAM":
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &CreateStream{Name: name}, nil
	case "WINDOW":
		p.next()
		return p.parseCreateWindow()
	default:
		t := p.next()
		return nil, fmt.Errorf("streamql: CREATE %q not supported at %d", t.text, t.pos)
	}
}

func (p *sqlParser) parseCreateInput() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var fields []stream.Field
	for {
		fname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ft, err := stream.ParseFieldType(tname)
		if err != nil {
			return nil, err
		}
		fields = append(fields, stream.Field{Name: fname, Type: ft})
		if p.peek() == "," {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	schema, err := stream.NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	return &CreateInputStream{Name: name, Schema: schema}, nil
}

func (p *sqlParser) parseCreateWindow() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if _, err := p.expect("SIZE"); err != nil {
		return nil, err
	}
	size, err := p.expectInt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("ADVANCE"); err != nil {
		return nil, err
	}
	step, err := p.expectInt()
	if err != nil {
		return nil, err
	}
	unit, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	wt, err := dsms.ParseWindowType(unit)
	if err != nil {
		return nil, err
	}
	spec := dsms.WindowSpec{Type: wt, Size: size, Step: step}
	if wt == dsms.WindowTime && strings.EqualFold(unit, "seconds") {
		spec.Size *= 1000
		spec.Step *= 1000
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &CreateWindow{Name: name, Spec: spec}, nil
}

func (p *sqlParser) expectInt() (int64, error) {
	if p.eof() {
		return 0, fmt.Errorf("streamql: unexpected end of script, expected integer")
	}
	t := p.next()
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("streamql: expected integer at %d, got %q", t.pos, t.text)
	}
	return n, nil
}

func (p *sqlParser) parseSelect() (Statement, error) {
	if _, err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.peek() == "," {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect("FROM"); err != nil {
		return nil, err
	}
	from, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.peek() == "[" {
		p.next()
		w, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.Window = w
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.peekUpper() == "WHERE" {
		whereTok := p.next()
		// The condition is the raw source between WHERE and INTO.
		start := whereTok.pos + len(whereTok.text)
		end := -1
		depth := 0
		for j := p.i; j < len(p.toks); j++ {
			switch strings.ToUpper(p.toks[j].text) {
			case "(":
				depth++
			case ")":
				depth--
			case "INTO":
				if depth == 0 {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("streamql: WHERE without INTO at %d", whereTok.pos)
		}
		condSrc := p.src[start:p.toks[end].pos]
		cond, err := expr.Parse(condSrc)
		if err != nil {
			return nil, fmt.Errorf("streamql: bad WHERE condition %q: %w", strings.TrimSpace(condSrc), err)
		}
		sel.Where = cond
		p.i = end
	}
	if _, err := p.expect("INTO"); err != nil {
		return nil, err
	}
	into, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sel.Into = into
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *sqlParser) parseSelectItem() (SelectItem, error) {
	if p.peek() == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return SelectItem{}, err
	}
	// Aggregate call: func(attr) [AS alias]
	if p.peek() == "(" {
		f, err := dsms.ParseAggFunc(name)
		if err != nil {
			return SelectItem{}, err
		}
		p.next()
		attr, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		// Qualified attribute inside the call.
		if p.peek() == "." {
			p.next()
			attr2, err := p.expectIdent()
			if err != nil {
				return SelectItem{}, err
			}
			attr = attr2
		}
		if _, err := p.expect(")"); err != nil {
			return SelectItem{}, err
		}
		alias := ""
		if p.peekUpper() == "AS" {
			p.next()
			alias, err = p.expectIdent()
			if err != nil {
				return SelectItem{}, err
			}
		}
		return SelectItem{Attr: attr, Agg: f, Alias: alias}, nil
	}
	// Qualified plain attribute: src.attr
	if p.peek() == "." {
		p.next()
		attr, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Attr: attr}, nil
	}
	return SelectItem{Attr: name}, nil
}
