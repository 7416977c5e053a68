// Package trace records and renders retired-instruction streams from any
// machine in this repository. All machines execute through the golden
// ISS, so a Recorder installed as the CPU retirement hook traces the
// ISS, DiAG rings and baseline cores alike. The public diag.WithTrace
// run option is the usual way to attach one:
//
//	res, err := diag.DiAG(cfg).Run(img, diag.WithTrace(os.Stderr), diag.WithTraceDepth(1000))
//
// which records every retired instruction (the timing machines' SetHook,
// the ISS's CPU.Hook) and writes MixSummary and Format once the run
// ends, failed runs included.
//
// A Recorder is an architectural (instruction-level) trace. For
// cycle-level visibility — cluster loads, lane transfers, pipeline
// stages, occupancy — attach an internal/obsv Observer to the machine
// (diag.WithObserver) and export a Chrome trace instead.
package trace

import (
	"fmt"
	"strings"

	"diag/internal/isa"
	"diag/internal/iss"
)

// Recorder keeps the last N retired instructions and running statistics
// about the whole stream.
type Recorder struct {
	ring  []iss.Exec
	next  int
	total uint64

	byClass [16]uint64
	taken   uint64
	control uint64
}

// NewRecorder builds a recorder keeping the last n events (n >= 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]iss.Exec, 0, n)}
}

// Record implements the iss.CPU Hook signature.
func (r *Recorder) Record(e iss.Exec) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.total++
	r.byClass[e.Inst.Op.Class()]++
	if e.Inst.Op.IsControl() {
		r.control++
		if e.Taken {
			r.taken++
		}
	}
}

// Total returns the number of instructions recorded overall.
func (r *Recorder) Total() uint64 { return r.total }

// ClassCount returns how many retired instructions had the given class.
func (r *Recorder) ClassCount(c isa.Class) uint64 { return r.byClass[c] }

// TakenRate returns the fraction of control instructions that redirected.
func (r *Recorder) TakenRate() float64 {
	if r.control == 0 {
		return 0
	}
	return float64(r.taken) / float64(r.control)
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []iss.Exec {
	out := make([]iss.Exec, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Format renders the retained window, one instruction per line:
// address, assembly, and annotations for taken branches and memory
// effective addresses. When the stream outgrew the window, a header
// line states how much of it the window shows, so a truncated trace is
// never mistaken for the whole run.
func (r *Recorder) Format() string {
	var b strings.Builder
	if r.total > uint64(len(r.ring)) {
		fmt.Fprintf(&b, "(showing last %d of %d)\n", len(r.ring), r.total)
	}
	for _, e := range r.Events() {
		fmt.Fprintf(&b, "%08x:  %-36s", e.PC, e.Inst.String())
		switch {
		case e.Inst.Op.IsControl() && e.Taken:
			fmt.Fprintf(&b, " -> %08x", e.NextPC)
		case e.Inst.Op.IsMem():
			fmt.Fprintf(&b, " @ %08x", e.MemAddr)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// MixSummary renders the instruction-mix histogram of the whole stream.
func (r *Recorder) MixSummary() string {
	if r.total == 0 {
		return "no instructions recorded\n"
	}
	type row struct {
		name  string
		class isa.Class
	}
	rows := []row{
		{"int ALU", isa.ClassALU}, {"shift", isa.ClassShift},
		{"mul", isa.ClassMul}, {"div", isa.ClassDiv},
		{"load", isa.ClassLoad}, {"store", isa.ClassStore},
		{"branch", isa.ClassBranch}, {"jump", isa.ClassJump},
		{"fp add", isa.ClassFPAdd}, {"fp mul", isa.ClassFPMul},
		{"fp div", isa.ClassFPDiv}, {"fp sqrt", isa.ClassFPSqrt},
		{"fma", isa.ClassFMA}, {"system", isa.ClassSys},
		{"simt", isa.ClassSIMT},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "instruction mix over %d retired:\n", r.total)
	for _, row := range rows {
		n := r.byClass[row.class]
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %10d  %5.1f%%\n", row.name, n, 100*float64(n)/float64(r.total))
	}
	fmt.Fprintf(&b, "  taken rate among control: %.1f%%\n", 100*r.TakenRate())
	return b.String()
}
