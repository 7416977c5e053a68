package asm

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
)

func (a *assembler) directive(st statement) error {
	switch st.mnem {
	case ".text":
		a.sec = secText
		return nil
	case ".data":
		a.sec = secData
		return nil
	case ".globl", ".global", ".type", ".size", ".section", ".p2align", ".option", ".attribute", ".file":
		// Accepted and ignored: common GNU-as noise so compiler-shaped
		// sources assemble unmodified.
		return nil
	case ".org":
		if len(st.args) != 1 {
			return a.errf(st.line, ".org needs one address")
		}
		v, err := a.eval(st.line, st.args[0])
		if err != nil {
			return err
		}
		return a.setOrg(st, v)
	case ".equ", ".set":
		if len(st.args) != 2 {
			return a.errf(st.line, "%s needs name, value", st.mnem)
		}
		v, err := a.eval(st.line, st.args[1])
		if err != nil {
			return err
		}
		if a.pass == 1 {
			if _, dup := a.symbols[st.args[0]]; dup {
				return a.errf(st.line, "duplicate symbol %q", st.args[0])
			}
		}
		a.symbols[st.args[0]] = v
		return nil
	case ".word":
		return a.emitScalars(st, 4)
	case ".half":
		return a.emitScalars(st, 2)
	case ".byte":
		return a.emitScalars(st, 1)
	case ".float":
		for _, arg := range st.args {
			f, err := strconv.ParseFloat(arg, 32)
			if err != nil {
				return a.errf(st.line, "bad float %q", arg)
			}
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(float32(f)))
			if err := a.emitData(st, b[:]); err != nil {
				return err
			}
		}
		return nil
	case ".space", ".zero":
		if len(st.args) != 1 {
			return a.errf(st.line, "%s needs a size", st.mnem)
		}
		n, err := a.eval(st.line, st.args[0])
		if err != nil {
			return err
		}
		if a.sec != secData {
			return a.errf(st.line, "data directive outside .data")
		}
		return a.pad(st, n)
	case ".ascii", ".asciz":
		if len(st.args) != 1 {
			return a.errf(st.line, "%s needs one string", st.mnem)
		}
		s, err := strconv.Unquote(st.args[0])
		if err != nil {
			return a.errf(st.line, "bad string %s", st.args[0])
		}
		b := []byte(s)
		if st.mnem == ".asciz" {
			b = append(b, 0)
		}
		return a.emitData(st, b)
	case ".align":
		if len(st.args) != 1 {
			return a.errf(st.line, ".align needs a power")
		}
		p, err := a.eval(st.line, st.args[0])
		if err != nil {
			return err
		}
		return a.alignTo(st, uint32(1)<<p)
	}
	return a.errf(st.line, "unknown directive %s", st.mnem)
}

func (a *assembler) emitScalars(st statement, size int) error {
	for _, arg := range st.args {
		v, err := a.eval(st.line, arg)
		if err != nil {
			return err
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		if err := a.emitData(st, b[:size]); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) setOrg(st statement, addr uint32) error {
	if a.sec == secText {
		if len(a.text) == 0 && a.textPC == a.textBase {
			a.textBase = addr
			a.textPC = addr
			return nil
		}
		if addr < a.textPC {
			return a.errf(st.line, ".org 0x%x moves text backwards (pc 0x%x)", addr, a.textPC)
		}
		if addr&3 != 0 {
			return a.errf(st.line, ".org 0x%x not word aligned in .text", addr)
		}
		return a.pad(st, (addr-a.textPC+3)&^3)
	}
	if len(a.data) == 0 && a.dataPC == a.dataBase {
		a.dataBase = addr
		a.dataPC = addr
		return nil
	}
	if addr < a.dataPC {
		return a.errf(st.line, ".org 0x%x moves data backwards (pc 0x%x)", addr, a.dataPC)
	}
	return a.pad(st, addr-a.dataPC)
}

func (a *assembler) alignTo(st statement, align uint32) error {
	if align == 0 {
		return nil
	}
	pc := a.pc()
	pad := (align - pc%align) % align
	if a.sec == secText && pad%4 != 0 {
		return a.errf(st.line, ".align %d impossible in .text", align)
	}
	return a.pad(st, pad)
}

// eval evaluates an immediate expression: integer literal, char literal,
// symbol, sym±offset, %hi(expr), %lo(expr).
func (a *assembler) eval(line int, expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, a.errf(line, "empty expression")
	}
	// Additive expression: fold "a+b-c..." left to right, splitting only
	// at top-level (outside parens) '+'/'-' signs that are not the leading
	// sign of a primary.
	if ops, terms, ok := splitAdditive(expr); ok {
		acc, err := a.evalPrimary(line, terms[0])
		if err != nil {
			return 0, err
		}
		for i, op := range ops {
			v, err := a.evalPrimary(line, terms[i+1])
			if err != nil {
				return 0, err
			}
			if op == '+' {
				acc += v
			} else {
				acc -= v
			}
		}
		return acc, nil
	}
	return a.evalPrimary(line, expr)
}

// splitAdditive splits expr at top-level +/- operators. ok is false when
// there is nothing to split (expr is a single primary).
func splitAdditive(expr string) (ops []byte, terms []string, ok bool) {
	depth := 0
	start := 0
	for i := 0; i < len(expr); i++ {
		switch c := expr[i]; c {
		case '(':
			depth++
		case ')':
			depth--
		case '+', '-':
			if depth > 0 || i == start {
				continue // inside parens or leading sign
			}
			terms = append(terms, strings.TrimSpace(expr[start:i]))
			ops = append(ops, c)
			start = i + 1
		}
	}
	if len(ops) == 0 {
		return nil, nil, false
	}
	terms = append(terms, strings.TrimSpace(expr[start:]))
	return ops, terms, true
}

// evalPrimary evaluates a single term: %hi/%lo relocation, literal, char,
// or symbol.
func (a *assembler) evalPrimary(line int, expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if strings.HasPrefix(expr, "%hi(") && strings.HasSuffix(expr, ")") {
		v, err := a.eval(line, expr[4:len(expr)-1])
		if err != nil {
			return 0, err
		}
		return (v + 0x800) >> 12, nil
	}
	if strings.HasPrefix(expr, "%lo(") && strings.HasSuffix(expr, ")") {
		v, err := a.eval(line, expr[4:len(expr)-1])
		if err != nil {
			return 0, err
		}
		return uint32(int32(v<<20) >> 20), nil
	}
	if len(expr) == 3 && expr[0] == '\'' && expr[2] == '\'' {
		return uint32(expr[1]), nil
	}
	if v, err := parseInt(expr); err == nil {
		return v, nil
	}
	if isIdent(expr) {
		v, ok := a.symbols[expr]
		if !ok {
			if a.pass == 1 {
				return 0, nil // forward reference; resolved in pass 2
			}
			return 0, a.errf(line, "undefined symbol %q", expr)
		}
		return v, nil
	}
	return 0, a.errf(line, "cannot evaluate expression %q", expr)
}

func parseInt(s string) (uint32, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, err
	}
	if neg {
		return uint32(-int64(v)), nil
	}
	return uint32(v), nil
}
