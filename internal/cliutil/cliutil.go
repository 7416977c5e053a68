// Package cliutil centralizes the core command-line flags shared by
// every diag tool, so their spelling, defaults, and semantics cannot
// drift between commands:
//
//	-parallel N     worker count (0 = GOMAXPROCS)
//	-seed N         deterministic seed; equal seeds replay identical runs
//	-timeout D      wall-clock budget (0 = none)
//	-o FILE         write primary output to FILE instead of stdout
//	-journal FILE   record campaign progress durably in FILE
//	-resume         continue the campaign recorded in -journal
//	-retries N      extra attempts for transient job failures (0 = off)
//	-retry-delay D  base backoff before the first retry
//
// Tools register the whole set with Flags; a flag that has no effect on
// a particular tool (a seed on the assembler) is still accepted, so
// scripts can pass one uniform flag vocabulary to every command.
//
// The package also centralizes the campaign tools' crash-safety plumbing:
// SignalContext installs the graceful SIGINT/SIGTERM handler (first
// signal cancels the run context so workers drain and the journal
// flushes; a second kills the process), Core.OpenJournal creates or
// resumes the run journal with the mismatch guard and resume banner, and
// Interrupted prints the exact command that resumes an interrupted run.
// LoadProgram gives the simulation tools one way to name their program:
// a benchmark workload or an assembly file, and WriteChromeTrace one way
// to write a schema-checked Chrome trace.
package cliutil

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"diag/internal/asm"
	"diag/internal/exp"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/obsv"
	"diag/internal/workloads"
)

// Core holds the parsed values of the shared flag set.
type Core struct {
	// Parallel is the -parallel worker count; 0 means GOMAXPROCS, which
	// every consumer of the value (exp.Options, fault.Campaign, bench)
	// already treats as the default.
	Parallel *int
	// Seed is the -seed deterministic seed.
	Seed *int64
	// Timeout is the -timeout wall-clock budget; 0 means none.
	Timeout *time.Duration
	// Out is the -o output path; "" or "-" means stdout.
	Out *string
	// Journal is the -journal path of the durable run journal ("" = no
	// journal).
	Journal *string
	// Resume is the -resume switch: continue the campaign recorded in
	// the -journal file instead of starting fresh.
	Resume *bool
	// Retries is the -retries count of extra attempts for transient job
	// failures.
	Retries *int
	// RetryDelay is the -retry-delay base backoff.
	RetryDelay *time.Duration
}

// Flags registers the core flag set on fs (flag.CommandLine for the
// tools) with the canonical spellings and usage strings, and returns
// the bound values. Call it before fs.Parse.
func Flags(fs *flag.FlagSet) *Core {
	return &Core{
		Parallel:   fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS); deterministic reports are identical at any value"),
		Seed:       fs.Int64("seed", 1, "deterministic seed; equal seeds replay identical runs"),
		Timeout:    fs.Duration("timeout", 0, "wall-clock budget (0 = none)"),
		Out:        fs.String("o", "", "write primary output to this file instead of stdout"),
		Journal:    fs.String("journal", "", "record campaign progress durably in this file (crash-safe; see -resume)"),
		Resume:     fs.Bool("resume", false, "continue the campaign recorded in the -journal file, replaying completed jobs"),
		Retries:    fs.Int("retries", 0, "extra attempts for transient job failures (timeouts, stalls, panics); deterministic failures never retry"),
		RetryDelay: fs.Duration("retry-delay", time.Second, "base backoff before the first retry (doubles per attempt, seed-jittered)"),
	}
}

// Retry assembles the exp retry policy from the parsed flags. The
// backoff cap is fixed at 8× the base delay, and the jitter stream is
// seeded from -seed so two invocations of the same campaign back off
// identically.
func (c *Core) Retry() exp.Retry {
	return exp.Retry{
		Max:       *c.Retries,
		BaseDelay: *c.RetryDelay,
		MaxDelay:  8 * *c.RetryDelay,
		Seed:      *c.Seed,
	}
}

// Context derives the tool's run context: ctx bounded by the -timeout
// budget when one is set. The returned stop must be deferred.
func (c *Core) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if c.Timeout != nil && *c.Timeout > 0 {
		return context.WithTimeout(parent, *c.Timeout)
	}
	return parent, func() {}
}

// Output opens the -o destination: the named file when one was given,
// stdout (with a no-op Close) otherwise.
func (c *Core) Output() (io.WriteCloser, error) {
	return OpenOutput(*c.Out)
}

// OpenOutput opens path for writing; "" and "-" mean stdout, whose
// returned Close is a no-op.
func OpenOutput(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// Lookup reports whether fs defines a flag with the given name —
// the hook the flag-uniformity test uses.
func Lookup(fs *flag.FlagSet, name string) bool { return fs.Lookup(name) != nil }

// LoadProgram returns the program a tool runs: the benchmark workload
// named by the tool's workload flag (spelled flagName, set to name),
// built with p, or — when that flag is empty — the assembly file that
// is fs's one argument. label names the program (the workload or the
// file path); check verifies a finished run's memory against the
// workload's expected output and is nil for a file.
func LoadProgram(fs *flag.FlagSet, flagName, name string, p workloads.Params) (img *mem.Image, label string, check func(*mem.Memory) error, err error) {
	if name != "" {
		w, ok := workloads.ByName(name)
		if !ok {
			var names []string
			for _, w := range workloads.All() {
				names = append(names, w.Name)
			}
			return nil, "", nil, fmt.Errorf("unknown %s %q (have: %s)", flagName, name, strings.Join(names, ", "))
		}
		img, err := w.Build(p)
		return img, name, func(m *mem.Memory) error { return w.Check(m, p) }, err
	}
	if fs.NArg() != 1 {
		return nil, "", nil, fmt.Errorf("usage: %s [flags] prog.s  (or -%s NAME)", filepath.Base(fs.Name()), flagName)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return nil, "", nil, err
	}
	img, err = asm.Assemble(string(src))
	return img, fs.Arg(0), nil, err
}

// WriteChromeTrace exports col's retained events as a Chrome trace
// (loadable at https://ui.perfetto.dev) to path and returns its entry
// count. The export is checked with CheckChromeTrace in memory first,
// so a written file always passes the schema validator.
func WriteChromeTrace(path string, col *obsv.Collector, opt obsv.ChromeTraceOptions) (int, error) {
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf, opt); err != nil {
		return 0, err
	}
	n, err := CheckChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, fmt.Errorf("internal error: emitted trace fails validation: %w", err)
	}
	return n, os.WriteFile(path, buf.Bytes(), 0o644)
}

// CheckChromeTrace decodes a Chrome trace from r, validates it against
// the trace-event schema subset, and returns its entry count.
func CheckChromeTrace(r io.Reader) (int, error) {
	doc, err := obsv.DecodeChromeTrace(r)
	if err != nil {
		return 0, err
	}
	if err := doc.Validate(); err != nil {
		return 0, err
	}
	return len(doc.TraceEvents), nil
}

// SignalContext derives the campaign tools' graceful-shutdown context:
// the first SIGINT or SIGTERM cancels it, which stops feeding new jobs,
// drains in-flight workers (machine models poll their context), and lets
// the journal flush before the process exits; a second signal kills the
// process immediately (signal.NotifyContext restores default handling
// once the context is cancelled). The returned stop must be deferred.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// OpenJournal opens the tool's run journal per the -journal/-resume
// flags: nil (no journal) when -journal is unset, a fresh journal
// otherwise, or — with -resume — the existing journal after recovering
// its valid prefix and validating its manifest against m. A non-empty
// journal without -resume is refused rather than silently overwritten,
// and resuming prints a banner to stderr summarizing recovered progress,
// recorded failure classes, and jobs that were started but never
// finished (wedge suspects).
func (c *Core) OpenJournal(tool string, m journal.Manifest) (*journal.Journal, *journal.State, error) {
	path := *c.Journal
	if path == "" {
		if *c.Resume {
			return nil, nil, fmt.Errorf("-resume needs -journal FILE")
		}
		return nil, nil, nil
	}
	if !*c.Resume {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			return nil, nil, fmt.Errorf(
				"journal %s already exists; pass -resume to continue it or delete it to start over", path)
		}
		j, err := journal.Create(path, m)
		return j, nil, err
	}
	j, st, err := journal.Resume(path, m)
	if err != nil {
		return nil, nil, err
	}
	done, total := st.CountDone()
	if total > 0 {
		fmt.Fprintf(os.Stderr, "%s: resuming %s: %d/%d jobs already journaled\n", tool, path, done, total)
	} else {
		fmt.Fprintf(os.Stderr, "%s: resuming %s: %d jobs already journaled\n", tool, path, done)
	}
	if classes := st.Failures(); len(classes) > 0 {
		names := make([]string, len(classes))
		for i, cl := range classes {
			names[i] = cl.String()
		}
		fmt.Fprintf(os.Stderr, "%s: journal records failures of class: %s\n", tool, strings.Join(names, ", "))
	}
	for _, sw := range st.Sweeps {
		if w := sw.Wedged(); len(w) > 0 {
			label := sw.Label
			if label == "" {
				label = fmt.Sprintf("sweep %d", sw.Ordinal)
			}
			fmt.Fprintf(os.Stderr,
				"%s: %s: %d job(s) started but never finished — wedge suspects, will re-run: %v\n",
				tool, label, len(w), w)
		}
	}
	return j, st, nil
}

// ResumeCommand reconstructs the exact command line that resumes the
// current invocation: the original arguments plus -resume (once).
func ResumeCommand() string {
	args := make([]string, 0, len(os.Args)+1)
	resume := false
	for _, a := range os.Args {
		if a == "-resume" || a == "--resume" {
			resume = true
		}
		args = append(args, a)
	}
	if !resume {
		args = append(args, "-resume")
	}
	return strings.Join(args, " ")
}

// Interrupted prints the standard interruption notice to stderr: with a
// journal, the completed work is durable and the notice includes the
// exact resume command; without one it just reports the interruption.
func Interrupted(tool string, j *journal.Journal) {
	if j == nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", tool)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted — completed jobs are saved in %s; resume with:\n  %s\n",
		tool, j.Path(), ResumeCommand())
}
