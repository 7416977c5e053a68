// Package asm implements a two-pass RISC-V assembler for the RV32IMF
// instruction set plus the DiAG extensions. It exists so that benchmark
// kernels and examples can be written as readable assembly text instead
// of hand-packed instruction words.
//
// Supported syntax:
//
//   - labels ("loop:"), one instruction or directive per line;
//   - comments introduced by '#' or "//";
//   - sections .text and .data with independent location counters,
//     .org to place either section;
//   - data directives .word .half .byte .float .space .align .ascii .asciz;
//   - constant definition .equ NAME, value;
//   - ABI and numeric register names, f-registers for FP operands;
//   - immediates in decimal, hex (0x), binary (0b), and character ('c');
//   - symbol immediates, sym+off / sym-off arithmetic, %hi(sym), %lo(sym);
//   - the usual pseudo-instructions (li, la, mv, not, neg, seqz, snez,
//     sltz, sgtz, beqz, bnez, blez, bgez, bltz, bgtz, bgt, ble, bgtu,
//     bleu, j, jr, call, ret, nop, fmv.s, fabs.s, fneg.s);
//   - DiAG extensions: "simt.s rc, rstep, rend, interval" and
//     "simt.e rc, rend, label" where label names the matching simt.s.
//
// The entry point is the _start label if defined, else the first text
// address.
package asm

import (
	"fmt"
	"slices"
	"strings"

	"diag/internal/isa"
	"diag/internal/mem"
)

// Default section base addresses. Workloads can override with .org.
const (
	DefaultTextBase = 0x0000_1000
	DefaultDataBase = 0x0010_0000
)

// Error is an assembly diagnostic carrying the source line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble translates source into a loadable image.
func Assemble(source string) (*mem.Image, error) {
	a := &assembler{
		symbols:  make(map[string]uint32),
		textBase: DefaultTextBase,
		dataBase: DefaultDataBase,
	}
	return a.assemble(source)
}

// statement is one parsed source line.
type statement struct {
	line   int
	labels []string
	mnem   string   // lower-cased mnemonic or directive (with leading '.')
	args   []string // comma-separated operand strings, trimmed
}

type section int

const (
	secText section = iota
	secData
)

type assembler struct {
	symbols  map[string]uint32
	textBase uint32
	dataBase uint32

	stmts []statement

	// pass state
	textPC uint32 // current text location counter
	dataPC uint32
	sec    section

	text []uint32
	data []byte // relative to dataBase

	pass int
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) assemble(source string) (*mem.Image, error) {
	if err := a.parseLines(source); err != nil {
		return nil, err
	}
	// Pass 1: assign addresses to labels.
	a.pass = 1
	if err := a.runPass(); err != nil {
		return nil, err
	}
	// Pass 2: encode into sections sized by pass 1, so no statement
	// reallocates them.
	a.pass = 2
	a.text = make([]uint32, 0, (a.textPC-a.textBase)/4)
	a.data = make([]byte, 0, a.dataPC-a.dataBase)
	if err := a.runPass(); err != nil {
		return nil, err
	}
	img := &mem.Image{
		TextAddr: a.textBase,
		Text:     a.text,
	}
	if len(a.data) > 0 {
		img.Segments = []mem.Segment{{Addr: a.dataBase, Data: a.data}}
	}
	if entry, ok := a.symbols["_start"]; ok {
		img.Entry = entry
	} else {
		img.Entry = a.textBase
	}
	return img, nil
}

// parseLines tokenizes the source into statements.
func (a *assembler) parseLines(source string) error {
	var pending []string
	for i, raw := range strings.Split(source, "\n") {
		line := i + 1
		s := raw
		if idx := strings.Index(s, "#"); idx >= 0 {
			s = s[:idx]
		}
		if idx := strings.Index(s, "//"); idx >= 0 {
			s = s[:idx]
		}
		s = strings.TrimSpace(s)
		// Peel leading labels (possibly several on one line).
		for {
			idx := strings.Index(s, ":")
			if idx < 0 {
				break
			}
			label := strings.TrimSpace(s[:idx])
			if !isIdent(label) {
				break
			}
			pending = append(pending, label)
			s = strings.TrimSpace(s[idx+1:])
		}
		if s == "" {
			continue
		}
		fields := strings.SplitN(s, " ", 2)
		st := statement{line: line, labels: pending, mnem: strings.ToLower(fields[0])}
		pending = nil
		if len(fields) == 2 {
			st.args = splitArgs(fields[1])
		}
		a.stmts = append(a.stmts, st)
	}
	if len(pending) > 0 {
		// Trailing labels attach to an empty terminator statement so they
		// still get addresses (e.g. an end-of-data marker).
		a.stmts = append(a.stmts, statement{line: -1, labels: pending, mnem: ""})
	}
	return nil
}

// splitArgs splits an operand list on commas that are not inside parens
// or quotes.
func splitArgs(s string) []string {
	var args []string
	depth := 0
	quote := byte(0)
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote && (i == 0 || s[i-1] != '\\') {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			args = append(args, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		args = append(args, tail)
	}
	return args
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '.' || r == '$' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// runPass walks all statements once, either sizing (pass 1) or encoding
// (pass 2).
func (a *assembler) runPass() error {
	a.textPC = a.textBase
	a.dataPC = a.dataBase
	a.sec = secText
	a.text = a.text[:0]
	a.data = a.data[:0]
	for _, st := range a.stmts {
		for _, label := range st.labels {
			pc := a.pc()
			if a.pass == 1 {
				if _, dup := a.symbols[label]; dup {
					return a.errf(st.line, "duplicate label %q", label)
				}
				a.symbols[label] = pc
			}
		}
		if st.mnem == "" {
			continue
		}
		var err error
		if strings.HasPrefix(st.mnem, ".") {
			err = a.directive(st)
		} else {
			err = a.instruction(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) pc() uint32 {
	if a.sec == secText {
		return a.textPC
	}
	return a.dataPC
}

// advance moves the current section's location counter n bytes on. A
// counter that would run past 0xFFFFFFFF is an error, not a wrap.
func (a *assembler) advance(st statement, n uint32) error {
	pc := &a.dataPC
	if a.sec == secText {
		pc = &a.textPC
	}
	if *pc+n < *pc {
		return a.errf(st.line, "%s: location counter 0x%x + %d runs past 0xffffffff", st.mnem, *pc, n)
	}
	*pc += n
	return nil
}

// emit appends one encoded instruction word (pass 2) or just advances the
// location counter (pass 1).
func (a *assembler) emit(st statement, in isa.Inst) error {
	if a.sec != secText {
		return a.errf(st.line, "instruction outside .text")
	}
	if err := a.advance(st, 4); err != nil {
		return err
	}
	if a.pass == 2 {
		w, err := isa.Encode(in)
		if err != nil {
			return a.errf(st.line, "%v", err)
		}
		a.text = append(a.text, w)
	}
	return nil
}

func (a *assembler) emitData(st statement, b []byte) error {
	if a.sec != secData {
		return a.errf(st.line, "data directive outside .data")
	}
	if err := a.advance(st, uint32(len(b))); err != nil {
		return err
	}
	if a.pass == 2 {
		a.data = append(a.data, b...)
	}
	return nil
}

// pad advances the current section n bytes, filling the gap with zero
// bytes in .data and with nops in .text (where n is a multiple of 4).
// Pass 1 only moves the location counter; pass 2 grows the section
// once, never materializing the gap anywhere else.
func (a *assembler) pad(st statement, n uint32) error {
	if err := a.advance(st, n); err != nil {
		return err
	}
	if a.pass == 1 {
		return nil
	}
	if a.sec == secData {
		start := len(a.data)
		a.data = slices.Grow(a.data, int(n))[:start+int(n)]
		clear(a.data[start:])
		return nil
	}
	start := len(a.text)
	a.text = slices.Grow(a.text, int(n/4))[:start+int(n/4)]
	for i := start; i < len(a.text); i++ {
		a.text[i] = nopWord
	}
	return nil
}

// nopWord is the encoding of addi x0, x0, 0, the .text padding.
const nopWord = 0x00000013
