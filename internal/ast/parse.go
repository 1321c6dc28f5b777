package ast

import (
	"fmt"

	"repro/internal/sexp"
)

// parser carries the mutable state of a parse: the variable counter,
// the gensym counter and the lexical environment.
type parser struct {
	nextVar int
	nextTmp int
	env     env
}

// env is a parse's lexical environment. It maps each name to its
// innermost visible binding, so a lookup is one map probe at any
// nesting depth. Scopes open and close in LIFO order: a scope's
// bindings are pushed when it opens, and the bindings they shadowed
// are restored when it closes.
type env struct {
	vars map[sexp.Symbol]*Var
	// shadowed is the undo log: each bind records the binding it hid
	// (nil when the name was unbound).
	shadowed []shadowedVar
}

type shadowedVar struct {
	name sexp.Symbol
	prev *Var
}

func (e *env) lookup(name sexp.Symbol) *Var { return e.vars[name] }

// open starts a scope and returns the mark its close restores to.
func (e *env) open() int { return len(e.shadowed) }

// bind makes v the innermost binding of name until the current scope
// closes.
func (e *env) bind(name sexp.Symbol, v *Var) {
	e.shadowed = append(e.shadowed, shadowedVar{name: name, prev: e.vars[name]})
	e.vars[name] = v
}

// close ends the scope opened at mark, restoring every binding its
// binds shadowed, innermost first.
func (e *env) close(mark int) {
	for i := len(e.shadowed) - 1; i >= mark; i-- {
		sv := e.shadowed[i]
		if sv.prev == nil {
			delete(e.vars, sv.name)
		} else {
			e.vars[sv.name] = sv.prev
		}
	}
	e.shadowed = e.shadowed[:mark]
}

func (p *parser) newVar(name sexp.Symbol) *Var {
	v := &Var{Name: name, ID: p.nextVar}
	p.nextVar++
	return v
}

func (p *parser) gensym(stem string) sexp.Symbol {
	p.nextTmp++
	return sexp.Symbol(fmt.Sprintf("%%%s.%d", stem, p.nextTmp))
}

// ParseProgram parses a sequence of top-level forms. Top-level defines
// become Defs; remaining expressions are sequenced into the body. The
// value of the last body expression is the program result.
func ParseProgram(forms []sexp.Datum) (*Program, error) {
	return ParseProgramAfter(&Program{}, forms)
}

// ParseProgramAfter parses forms as the continuation of lib: the result
// is the program that lib's forms followed by forms parse to. Variable
// IDs and generated names carry on from lib's, lib's definitions come
// first and its top-level expressions run before forms' own. lib is
// only read, and the result shares its definitions.
func ParseProgramAfter(lib *Program, forms []sexp.Datum) (*Program, error) {
	p := &parser{nextVar: lib.NumVars, nextTmp: lib.NumTmps, env: env{vars: map[sexp.Symbol]*Var{}}}
	prog := &Program{Defs: lib.Defs[:len(lib.Defs):len(lib.Defs)]}
	body := lib.exprs[:len(lib.exprs):len(lib.exprs)]
	for _, f := range forms {
		if name, rhs, ok := splitDefine(f); ok {
			e, err := p.parse(rhs, string(name))
			if err != nil {
				return nil, err
			}
			prog.Defs = append(prog.Defs, Def{Name: name, Rhs: e})
			continue
		}
		e, err := p.parse(f, "")
		if err != nil {
			return nil, err
		}
		body = append(body, e)
	}
	switch len(body) {
	case 0:
		prog.Body = Unspecified
	case 1:
		prog.Body = body[0]
	default:
		prog.Body = &Begin{Exprs: body}
	}
	prog.exprs = body
	prog.NumVars = p.nextVar
	prog.NumTmps = p.nextTmp
	return prog, nil
}

// ParseString is a convenience wrapper: read all datums in src and parse
// them as a program.
func ParseString(src string) (*Program, error) {
	forms, err := sexp.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return ParseProgram(forms)
}

// splitDefine recognizes (define name rhs) and (define (name . formals)
// body...) and returns the name and an equivalent rhs datum.
func splitDefine(d sexp.Datum) (sexp.Symbol, sexp.Datum, bool) {
	pair, ok := d.(*sexp.Pair)
	if !ok || pair.Car != sexp.Symbol("define") {
		return "", nil, false
	}
	items, err := sexp.ListItems(d)
	if err != nil || len(items) < 2 {
		return "", nil, false
	}
	switch head := items[1].(type) {
	case sexp.Symbol:
		if len(items) == 2 {
			return head, sexp.List(sexp.Symbol("quote"), sexp.Symbol("#!unspecified")), true
		}
		if len(items) == 3 {
			return head, items[2], true
		}
		return "", nil, false
	case *sexp.Pair:
		name, ok := head.Car.(sexp.Symbol)
		if !ok {
			return "", nil, false
		}
		lam := sexp.Cons(sexp.Symbol("lambda"), sexp.Cons(head.Cdr, sexp.List(items[2:]...)))
		return name, lam, true
	default:
		return "", nil, false
	}
}

// parse converts one datum to core AST. nameHint labels lambdas for
// profiling output.
func (p *parser) parse(d sexp.Datum, nameHint string) (Expr, error) {
	switch t := d.(type) {
	case sexp.Fixnum, sexp.Flonum, sexp.Boolean, sexp.Char, sexp.Str:
		return &Const{Value: t}, nil
	case sexp.Symbol:
		if v := p.env.lookup(t); v != nil {
			return &Ref{Var: v}, nil
		}
		return &GlobalRef{Name: t}, nil
	case *sexp.Pair:
		return p.parseForm(t, nameHint)
	case sexp.Empty:
		return nil, fmt.Errorf("ast: empty application ()")
	default:
		return nil, fmt.Errorf("ast: cannot parse %s", d)
	}
}

func (p *parser) parseForm(form *sexp.Pair, nameHint string) (Expr, error) {
	head, isSym := form.Car.(sexp.Symbol)
	if isSym && p.env.lookup(head) == nil {
		switch head {
		case "quote":
			items, err := formItems(form, 2, 2)
			if err != nil {
				return nil, err
			}
			return &Const{Value: items[1]}, nil
		case "quasiquote":
			items, err := formItems(form, 2, 2)
			if err != nil {
				return nil, err
			}
			expanded, err := expandQuasiquote(items[1], 1)
			if err != nil {
				return nil, err
			}
			return p.parse(expanded, nameHint)
		case "if":
			items, err := formItems(form, 3, 4)
			if err != nil {
				return nil, err
			}
			test, err := p.parse(items[1], "")
			if err != nil {
				return nil, err
			}
			then, err := p.parse(items[2], "")
			if err != nil {
				return nil, err
			}
			var els Expr = Unspecified
			if len(items) == 4 {
				if els, err = p.parse(items[3], ""); err != nil {
					return nil, err
				}
			}
			return &If{Test: test, Then: then, Else: els}, nil
		case "begin":
			items, err := formItems(form, 1, -1)
			if err != nil {
				return nil, err
			}
			return p.parseBody(items[1:])
		case "lambda":
			return p.parseLambda(form, nameHint)
		case "let":
			return p.parseLet(form, nameHint)
		case "let*":
			return p.parseLetStar(form, nameHint)
		case "letrec", "letrec*":
			return p.parseLetrec(form, nameHint)
		case "set!":
			items, err := formItems(form, 3, 3)
			if err != nil {
				return nil, err
			}
			name, ok := items[1].(sexp.Symbol)
			if !ok {
				return nil, fmt.Errorf("ast: set! target must be a symbol, got %s", items[1])
			}
			rhs, err := p.parse(items[2], string(name))
			if err != nil {
				return nil, err
			}
			if v := p.env.lookup(name); v != nil {
				v.Assigned = true
				return &Set{Var: v, Rhs: rhs}, nil
			}
			return &GlobalSet{Name: name, Rhs: rhs}, nil
		case "and":
			items, err := formItems(form, 1, -1)
			if err != nil {
				return nil, err
			}
			return p.parseAnd(items[1:])
		case "or":
			items, err := formItems(form, 1, -1)
			if err != nil {
				return nil, err
			}
			return p.parseOr(items[1:])
		case "not":
			items, err := formItems(form, 2, 2)
			if err != nil {
				return nil, err
			}
			e, err := p.parse(items[1], "")
			if err != nil {
				return nil, err
			}
			// (not E) = (if E #f #t), per Figure 1.
			return &If{Test: e, Then: False, Else: True}, nil
		case "when":
			items, err := formItems(form, 3, -1)
			if err != nil {
				return nil, err
			}
			test, err := p.parse(items[1], "")
			if err != nil {
				return nil, err
			}
			body, err := p.parseBody(items[2:])
			if err != nil {
				return nil, err
			}
			return &If{Test: test, Then: body, Else: Unspecified}, nil
		case "unless":
			items, err := formItems(form, 3, -1)
			if err != nil {
				return nil, err
			}
			test, err := p.parse(items[1], "")
			if err != nil {
				return nil, err
			}
			body, err := p.parseBody(items[2:])
			if err != nil {
				return nil, err
			}
			return &If{Test: test, Then: Unspecified, Else: body}, nil
		case "cond":
			return p.parseCond(form)
		case "case":
			return p.parseCase(form)
		case "do":
			return p.parseDo(form)
		case "define":
			return nil, fmt.Errorf("ast: define is only allowed at top level or at the head of a body")
		}
	}
	// Ordinary application.
	items, err := formItems(form, 1, -1)
	if err != nil {
		return nil, err
	}
	fn, err := p.parse(items[0], "")
	if err != nil {
		return nil, err
	}
	args := make([]Expr, 0, len(items)-1)
	for _, a := range items[1:] {
		e, err := p.parse(a, "")
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	return &Call{Fn: fn, Args: args}, nil
}

// parseBody handles internal defines at the head of a body by rewriting
// them into a letrec*, then sequences the remaining expressions.
func (p *parser) parseBody(forms []sexp.Datum) (Expr, error) {
	var names []sexp.Symbol
	var rhss []sexp.Datum
	i := 0
	for ; i < len(forms); i++ {
		name, rhs, ok := splitDefine(forms[i])
		if !ok {
			break
		}
		names = append(names, name)
		rhss = append(rhss, rhs)
	}
	rest := forms[i:]
	if len(names) > 0 {
		if len(rest) == 0 {
			return nil, fmt.Errorf("ast: body consists only of definitions")
		}
		mark := p.env.open()
		vars := make([]*Var, len(names))
		for j, n := range names {
			vars[j] = p.newVar(n)
			p.env.bind(n, vars[j])
		}
		inits := make([]Expr, len(rhss))
		for j, r := range rhss {
			e, err := p.parse(r, string(names[j]))
			if err != nil {
				return nil, err
			}
			inits[j] = e
		}
		body, err := p.parseBody(rest)
		if err != nil {
			return nil, err
		}
		p.env.close(mark)
		return &Letrec{Vars: vars, Inits: inits, Body: body}, nil
	}
	if len(rest) == 0 {
		return Unspecified, nil
	}
	exprs := make([]Expr, 0, len(rest))
	for _, f := range rest {
		e, err := p.parse(f, "")
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
	}
	if len(exprs) == 1 {
		return exprs[0], nil
	}
	return &Begin{Exprs: exprs}, nil
}

func (p *parser) parseLambda(form *sexp.Pair, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	formals, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: lambda formals must be a proper list (variadic procedures are not supported): %s", items[1])
	}
	mark := p.env.open()
	params := make([]*Var, len(formals))
	for i, f := range formals {
		name, ok := f.(sexp.Symbol)
		if !ok {
			return nil, fmt.Errorf("ast: lambda formal must be a symbol, got %s", f)
		}
		params[i] = p.newVar(name)
		p.env.bind(name, params[i])
	}
	body, err := p.parseBody(items[2:])
	if err != nil {
		return nil, err
	}
	p.env.close(mark)
	if nameHint == "" {
		nameHint = "anon"
	}
	return &Lambda{Params: params, Body: body, Name: nameHint}, nil
}

// parseLet handles both ordinary and named let.
func (p *parser) parseLet(form *sexp.Pair, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	if loopName, ok := items[1].(sexp.Symbol); ok {
		return p.parseNamedLet(loopName, items[2:])
	}
	names, inits, err := p.parseBindings(items[1])
	if err != nil {
		return nil, err
	}
	mark := p.env.open()
	vars := make([]*Var, len(names))
	for i, n := range names {
		vars[i] = p.newVar(n)
		p.env.bind(n, vars[i])
	}
	body, err := p.parseBody(items[2:])
	if err != nil {
		return nil, err
	}
	p.env.close(mark)
	return &Let{Vars: vars, Inits: inits, Body: body}, nil
}

func (p *parser) parseBindings(d sexp.Datum) ([]sexp.Symbol, []Expr, error) {
	bindings, err := sexp.ListItems(d)
	if err != nil {
		return nil, nil, fmt.Errorf("ast: malformed bindings %s", d)
	}
	names := make([]sexp.Symbol, len(bindings))
	inits := make([]Expr, len(bindings))
	for i, b := range bindings {
		pair, err := sexp.ListItems(b)
		if err != nil || len(pair) != 2 {
			return nil, nil, fmt.Errorf("ast: malformed binding %s", b)
		}
		name, ok := pair[0].(sexp.Symbol)
		if !ok {
			return nil, nil, fmt.Errorf("ast: binding name must be a symbol: %s", b)
		}
		names[i] = name
		init, err := p.parse(pair[1], string(name))
		if err != nil {
			return nil, nil, err
		}
		inits[i] = init
	}
	return names, inits, nil
}

// parseNamedLet expands (let loop ([x e] ...) body) into
// (letrec ([loop (lambda (x ...) body)]) (loop e ...)).
func (p *parser) parseNamedLet(loopName sexp.Symbol, rest []sexp.Datum) (Expr, error) {
	if len(rest) < 2 {
		return nil, fmt.Errorf("ast: malformed named let %s", loopName)
	}
	names, inits, err := p.parseBindings(rest[0])
	if err != nil {
		return nil, err
	}
	mark := p.env.open()
	loopVar := p.newVar(loopName)
	p.env.bind(loopName, loopVar)
	params := make([]*Var, len(names))
	for i, n := range names {
		params[i] = p.newVar(n)
		p.env.bind(n, params[i])
	}
	body, err := p.parseBody(rest[1:])
	if err != nil {
		return nil, err
	}
	p.env.close(mark)
	lam := &Lambda{Params: params, Body: body, Name: string(loopName)}
	callArgs := make([]Expr, len(inits))
	copy(callArgs, inits)
	return &Letrec{
		Vars:  []*Var{loopVar},
		Inits: []Expr{lam},
		Body:  &Call{Fn: &Ref{Var: loopVar}, Args: callArgs},
	}, nil
}

func (p *parser) parseLetStar(form *sexp.Pair, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	bindings, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed let* bindings")
	}
	return p.parseLetStarLoop(bindings, items[2:])
}

func (p *parser) parseLetStarLoop(bindings []sexp.Datum, body []sexp.Datum) (Expr, error) {
	if len(bindings) == 0 {
		return p.parseBody(body)
	}
	pair, err := sexp.ListItems(bindings[0])
	if err != nil || len(pair) != 2 {
		return nil, fmt.Errorf("ast: malformed binding %s", bindings[0])
	}
	name, ok := pair[0].(sexp.Symbol)
	if !ok {
		return nil, fmt.Errorf("ast: binding name must be a symbol: %s", bindings[0])
	}
	init, err := p.parse(pair[1], string(name))
	if err != nil {
		return nil, err
	}
	mark := p.env.open()
	v := p.newVar(name)
	p.env.bind(name, v)
	rest, err := p.parseLetStarLoop(bindings[1:], body)
	if err != nil {
		return nil, err
	}
	p.env.close(mark)
	return &Let{Vars: []*Var{v}, Inits: []Expr{init}, Body: rest}, nil
}

func (p *parser) parseLetrec(form *sexp.Pair, nameHint string) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	bindings, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed letrec bindings")
	}
	mark := p.env.open()
	vars := make([]*Var, len(bindings))
	rhss := make([]sexp.Datum, len(bindings))
	for i, b := range bindings {
		pair, err := sexp.ListItems(b)
		if err != nil || len(pair) != 2 {
			return nil, fmt.Errorf("ast: malformed binding %s", b)
		}
		name, ok := pair[0].(sexp.Symbol)
		if !ok {
			return nil, fmt.Errorf("ast: binding name must be a symbol: %s", b)
		}
		vars[i] = p.newVar(name)
		p.env.bind(name, vars[i])
		rhss[i] = pair[1]
	}
	inits := make([]Expr, len(vars))
	for i, r := range rhss {
		e, err := p.parse(r, string(vars[i].Name))
		if err != nil {
			return nil, err
		}
		inits[i] = e
	}
	body, err := p.parseBody(items[2:])
	if err != nil {
		return nil, err
	}
	p.env.close(mark)
	return &Letrec{Vars: vars, Inits: inits, Body: body}, nil
}

// parseAnd expands (and ...) into nested ifs, per Figure 1.
func (p *parser) parseAnd(args []sexp.Datum) (Expr, error) {
	if len(args) == 0 {
		return True, nil
	}
	first, err := p.parse(args[0], "")
	if err != nil {
		return nil, err
	}
	if len(args) == 1 {
		return first, nil
	}
	rest, err := p.parseAnd(args[1:])
	if err != nil {
		return nil, err
	}
	return &If{Test: first, Then: rest, Else: False}, nil
}

// parseOr expands (or e1 e2 ...) into (let ([t e1]) (if t t (or e2 ...)))
// so that e1 is evaluated once, per Figure 1's (if E1 true E2) modulo the
// usual value-preserving temporary.
func (p *parser) parseOr(args []sexp.Datum) (Expr, error) {
	if len(args) == 0 {
		return False, nil
	}
	first, err := p.parse(args[0], "")
	if err != nil {
		return nil, err
	}
	if len(args) == 1 {
		return first, nil
	}
	rest, err := p.parseOr(args[1:])
	if err != nil {
		return nil, err
	}
	tmp := p.newVar(p.gensym("or"))
	return &Let{
		Vars:  []*Var{tmp},
		Inits: []Expr{first},
		Body:  &If{Test: &Ref{Var: tmp}, Then: &Ref{Var: tmp}, Else: rest},
	}, nil
}

func (p *parser) parseCond(form *sexp.Pair) (Expr, error) {
	items, err := formItems(form, 2, -1)
	if err != nil {
		return nil, err
	}
	return p.parseCondClauses(items[1:])
}

func (p *parser) parseCondClauses(clauses []sexp.Datum) (Expr, error) {
	if len(clauses) == 0 {
		return Unspecified, nil
	}
	clause, err := sexp.ListItems(clauses[0])
	if err != nil || len(clause) == 0 {
		return nil, fmt.Errorf("ast: malformed cond clause %s", clauses[0])
	}
	if clause[0] == sexp.Symbol("else") {
		if len(clauses) != 1 {
			return nil, fmt.Errorf("ast: cond else clause must be last")
		}
		return p.parseBody(clause[1:])
	}
	test, err := p.parse(clause[0], "")
	if err != nil {
		return nil, err
	}
	rest, err := p.parseCondClauses(clauses[1:])
	if err != nil {
		return nil, err
	}
	if len(clause) == 1 {
		// (cond (test) ...) yields test's value when true.
		tmp := p.newVar(p.gensym("cond"))
		return &Let{
			Vars:  []*Var{tmp},
			Inits: []Expr{test},
			Body:  &If{Test: &Ref{Var: tmp}, Then: &Ref{Var: tmp}, Else: rest},
		}, nil
	}
	if len(clause) == 3 && clause[1] == sexp.Symbol("=>") {
		tmp := p.newVar(p.gensym("cond"))
		recv, err := p.parse(clause[2], "")
		if err != nil {
			return nil, err
		}
		return &Let{
			Vars:  []*Var{tmp},
			Inits: []Expr{test},
			Body: &If{
				Test: &Ref{Var: tmp},
				Then: &Call{Fn: recv, Args: []Expr{&Ref{Var: tmp}}},
				Else: rest,
			},
		}, nil
	}
	then, err := p.parseBody(clause[1:])
	if err != nil {
		return nil, err
	}
	return &If{Test: test, Then: then, Else: rest}, nil
}

// parseCase expands case into a let-bound key and a chain of memv tests.
func (p *parser) parseCase(form *sexp.Pair) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	key, err := p.parse(items[1], "")
	if err != nil {
		return nil, err
	}
	tmp := p.newVar(p.gensym("case"))
	// tmp is never bound in the environment: it is hidden from user
	// code, and the clauses reference it directly.
	body, err := p.parseCaseClauses(items[2:], tmp)
	if err != nil {
		return nil, err
	}
	return &Let{Vars: []*Var{tmp}, Inits: []Expr{key}, Body: body}, nil
}

func (p *parser) parseCaseClauses(clauses []sexp.Datum, key *Var) (Expr, error) {
	if len(clauses) == 0 {
		return Unspecified, nil
	}
	clause, err := sexp.ListItems(clauses[0])
	if err != nil || len(clause) < 2 {
		return nil, fmt.Errorf("ast: malformed case clause %s", clauses[0])
	}
	if clause[0] == sexp.Symbol("else") {
		if len(clauses) != 1 {
			return nil, fmt.Errorf("ast: case else clause must be last")
		}
		return p.parseBody(clause[1:])
	}
	data, err := sexp.ListItems(clause[0])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed case datum list %s", clause[0])
	}
	then, err := p.parseBody(clause[1:])
	if err != nil {
		return nil, err
	}
	rest, err := p.parseCaseClauses(clauses[1:], key)
	if err != nil {
		return nil, err
	}
	test := &Call{
		Fn:   &GlobalRef{Name: "memv"},
		Args: []Expr{&Ref{Var: key}, &Const{Value: sexp.List(data...)}},
	}
	return &If{Test: test, Then: then, Else: rest}, nil
}

// parseDo expands (do ([v init step] ...) (test result ...) body ...)
// into a named-let loop.
func (p *parser) parseDo(form *sexp.Pair) (Expr, error) {
	items, err := formItems(form, 3, -1)
	if err != nil {
		return nil, err
	}
	specs, err := sexp.ListItems(items[1])
	if err != nil {
		return nil, fmt.Errorf("ast: malformed do bindings")
	}
	exit, err := sexp.ListItems(items[2])
	if err != nil || len(exit) < 1 {
		return nil, fmt.Errorf("ast: malformed do exit clause")
	}

	// The inits are parsed in the enclosing scope before the loop's
	// scope opens, so scopes nest; the loop variable and the bindings
	// are still numbered in source order.
	loopSym := p.gensym("do")
	loopVar := p.newVar(loopSym)
	vars := make([]*Var, len(specs))
	inits := make([]Expr, len(specs))
	steps := make([]sexp.Datum, len(specs))
	for i, s := range specs {
		parts, err := sexp.ListItems(s)
		if err != nil || len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("ast: malformed do binding %s", s)
		}
		name, ok := parts[0].(sexp.Symbol)
		if !ok {
			return nil, fmt.Errorf("ast: do binding name must be a symbol: %s", s)
		}
		if inits[i], err = p.parse(parts[1], string(name)); err != nil {
			return nil, err
		}
		vars[i] = p.newVar(name)
		if len(parts) == 3 {
			steps[i] = parts[2]
		} else {
			steps[i] = parts[0] // variable unchanged across iterations
		}
	}

	mark := p.env.open()
	p.env.bind(loopSym, loopVar)
	for _, v := range vars {
		p.env.bind(v.Name, v)
	}
	test, err := p.parse(exit[0], "")
	if err != nil {
		return nil, err
	}
	var result Expr = Unspecified
	if len(exit) > 1 {
		if result, err = p.parseBody(exit[1:]); err != nil {
			return nil, err
		}
	}
	var bodyExprs []Expr
	for _, b := range items[3:] {
		e, err := p.parse(b, "")
		if err != nil {
			return nil, err
		}
		bodyExprs = append(bodyExprs, e)
	}
	stepArgs := make([]Expr, len(steps))
	for i, s := range steps {
		e, err := p.parse(s, "")
		if err != nil {
			return nil, err
		}
		stepArgs[i] = e
	}
	p.env.close(mark)
	again := &Call{Fn: &Ref{Var: loopVar}, Args: stepArgs}
	var loopBody Expr
	if len(bodyExprs) == 0 {
		loopBody = again
	} else {
		loopBody = &Begin{Exprs: append(bodyExprs, again)}
	}
	lam := &Lambda{Params: vars, Body: &If{Test: test, Then: result, Else: loopBody}, Name: string(loopSym)}
	return &Letrec{
		Vars:  []*Var{loopVar},
		Inits: []Expr{lam},
		Body:  &Call{Fn: &Ref{Var: loopVar}, Args: inits},
	}, nil
}

// expandQuasiquote rewrites quasiquote templates into cons/append/list
// constructions. depth tracks nesting of quasiquote within quasiquote.
func expandQuasiquote(d sexp.Datum, depth int) (sexp.Datum, error) {
	switch t := d.(type) {
	case *sexp.Pair:
		if t.Car == sexp.Symbol("unquote") && sexp.Length(t) == 2 {
			arg := t.Cdr.(*sexp.Pair).Car
			if depth == 1 {
				return arg, nil
			}
			inner, err := expandQuasiquote(arg, depth-1)
			if err != nil {
				return nil, err
			}
			return sexp.List(sexp.Symbol("list"), sexp.List(sexp.Symbol("quote"), sexp.Symbol("unquote")), inner), nil
		}
		if t.Car == sexp.Symbol("quasiquote") && sexp.Length(t) == 2 {
			inner, err := expandQuasiquote(t.Cdr.(*sexp.Pair).Car, depth+1)
			if err != nil {
				return nil, err
			}
			return sexp.List(sexp.Symbol("list"), sexp.List(sexp.Symbol("quote"), sexp.Symbol("quasiquote")), inner), nil
		}
		if carPair, ok := t.Car.(*sexp.Pair); ok && carPair.Car == sexp.Symbol("unquote-splicing") && sexp.Length(carPair) == 2 {
			if depth != 1 {
				return nil, fmt.Errorf("ast: nested unquote-splicing beyond depth 1 is not supported")
			}
			spliced := carPair.Cdr.(*sexp.Pair).Car
			rest, err := expandQuasiquote(t.Cdr, depth)
			if err != nil {
				return nil, err
			}
			return sexp.List(sexp.Symbol("append"), spliced, rest), nil
		}
		car, err := expandQuasiquote(t.Car, depth)
		if err != nil {
			return nil, err
		}
		cdr, err := expandQuasiquote(t.Cdr, depth)
		if err != nil {
			return nil, err
		}
		return sexp.List(sexp.Symbol("cons"), car, cdr), nil
	case *sexp.Vector:
		lst := sexp.List(t.Items...)
		expanded, err := expandQuasiquote(lst, depth)
		if err != nil {
			return nil, err
		}
		return sexp.List(sexp.Symbol("list->vector"), expanded), nil
	default:
		return sexp.List(sexp.Symbol("quote"), d), nil
	}
}

func formItems(form *sexp.Pair, min, max int) ([]sexp.Datum, error) {
	items, err := sexp.ListItems(form)
	if err != nil {
		return nil, fmt.Errorf("ast: improper form %s", form)
	}
	if len(items) < min || (max >= 0 && len(items) > max) {
		return nil, fmt.Errorf("ast: malformed %s form: %s", items[0], form)
	}
	return items, nil
}
