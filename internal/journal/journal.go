// Package journal is the durable run journal that makes long campaigns
// crash-safe. A campaign (fault injection, differential conformance,
// figure regeneration) opens one journal file, records a manifest
// identifying the exact experiment, and then appends one record per job
// transition: started, done (with the serialized result), or failed
// (with a typed error class). Every record is fsync'd, so after a crash,
// OOM kill, or SIGKILL the file holds everything that completed; a
// resumed campaign replays the recorded results and re-runs only the
// rest, producing a report byte-identical to an uninterrupted run.
//
// The wire format, schema "diag-journal/v1", is an append-only sequence
// of self-checking records after a fixed schema string:
//
//	[15-byte schema string] record*
//	record = [kind u8][payloadLen u32][payload][FNV-1a-64 digest u64]
//
// The digest covers the kind byte, the length, and the payload, so a
// torn tail — a record half-written when the process died — never
// decodes. Scan recovers the longest valid record prefix of arbitrary
// bytes without panicking (fuzzed like internal/snap); Resume truncates
// the file to that prefix before appending continues.
//
// The header and payload of a record are the internal/wire encoding of
// a frame{Kind, Payload}, and each payload is the wire encoding of one
// private record struct below, so the field lists of those structs are
// the format (the same walker derives diag-snap/v1):
//
//	manifest  tool string, seed i64, jobs u32, configDigest u64,
//	          programDigest u64, note string        (first record, once)
//	sweep     ordinal u32, jobs u32, label string   (one per exp.Run)
//	started   sweep u32, index u32
//	done      sweep u32, index u32, resultDigest u64, payload bytes
//	failed    sweep u32, index u32, class u8, msg string
//
// A `started` with no later `done`/`failed` marks a job that was in
// flight when the process died — the prime suspect for a wedge, which
// the CLIs surface in their resume banner.
package journal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"diag/internal/diagerr"
	"diag/internal/wire"
)

// Schema identifies the journal format. It is written verbatim at the
// start of every journal; any change to the encoding must bump the
// version suffix.
const Schema = "diag-journal/v1"

// ErrFormat is wrapped by every structural decode failure. Scan itself
// returns it only when the file is unusable (bad schema, no valid
// manifest); a malformed record merely ends the valid prefix.
var ErrFormat = errors.New("journal: malformed journal")

// ErrMismatch is wrapped by Resume when the journal on disk was written
// by a different experiment than the one resuming — determinism would
// be silently violated, so the resume is refused.
var ErrMismatch = errors.New("journal: manifest mismatch")

// Record kinds (wire values; never renumber).
const (
	kindManifest uint8 = 1
	kindSweep    uint8 = 2
	kindStarted  uint8 = 3
	kindDone     uint8 = 4
	kindFailed   uint8 = 5
)

// The wire structs of diag-journal/v1: the record frame and one payload
// struct per kind. Their field lists are the format: a new or moved
// field needs a schema bump.
type (
	// frame is a record's kind byte and u32-length-prefixed payload; a
	// trailing FNV-1a-64 digest (wire.Seal) covers both.
	frame struct {
		Kind    uint8
		Payload []byte
	}
	manifestRecord struct {
		Tool          string
		Seed          int64
		Jobs          uint32
		ConfigDigest  uint64
		ProgramDigest uint64
		Note          string
	}
	sweepRecord struct {
		Ordinal, Jobs uint32
		Label         string
	}
	// jobRecord is a started record and the prefix of done and failed.
	jobRecord struct {
		Sweep, Index uint32
	}
	doneRecord struct {
		Job          jobRecord
		ResultDigest uint64
		Result       []byte
	}
	failedRecord struct {
		Job   jobRecord
		Class Class
		Msg   string
	}
)

// Class is the typed error taxonomy a `failed` record carries. It is a
// wire value (never renumber) and doubles as the retry policy's
// transient/deterministic split.
type Class uint8

// Failure classes.
const (
	// ClassOther is any failure the taxonomy does not name — treated as
	// deterministic (a divergence, a bad configuration), never retried.
	ClassOther Class = 0
	// ClassTimeout is a wall-clock budget expiry (diagerr.ErrTimeout).
	// Transient: a loaded host may simply have been too slow.
	ClassTimeout Class = 1
	// ClassStalled is a watchdog-proven livelock (diagerr.ErrStalled).
	ClassStalled Class = 2
	// ClassPanic is a panic-recovered job (diagerr.ErrPanic).
	ClassPanic Class = 3
	// ClassBadProgram is a program-level fault (diagerr.ErrBadProgram).
	ClassBadProgram Class = 4
	// ClassBudget is a simulated cycle/instruction budget expiry.
	ClassBudget Class = 5
	// ClassCanceled is context cancellation — the campaign was stopped,
	// not the job failing.
	ClassCanceled Class = 6

	numClasses = 7
)

var classNames = [numClasses]string{
	"other", "timeout", "stalled", "panic", "bad-program", "budget", "canceled",
}

func (c Class) String() string {
	if int(c) >= numClasses {
		return fmt.Sprintf("class(%d)", uint8(c))
	}
	return classNames[c]
}

// Classify maps an error into the journal's failure taxonomy via the
// diagerr sentinels.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassOther
	case errors.Is(err, diagerr.ErrPanic):
		return ClassPanic
	case errors.Is(err, diagerr.ErrTimeout):
		return ClassTimeout
	case errors.Is(err, diagerr.ErrStalled):
		return ClassStalled
	case errors.Is(err, diagerr.ErrBadProgram):
		return ClassBadProgram
	case errors.Is(err, diagerr.ErrMaxCycles), errors.Is(err, diagerr.ErrMaxInstructions):
		return ClassBudget
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	return ClassOther
}

// Transient reports whether the class is worth retrying: the failure
// can plausibly be an artifact of the host (a slow machine, a wedged
// goroutine, a runtime fault) rather than a deterministic property of
// the job. Deterministic divergences must never be retried — a retry
// that changed the outcome would hide exactly the bugs campaigns exist
// to find.
func (c Class) Transient() bool {
	return c == ClassTimeout || c == ClassStalled || c == ClassPanic
}

// Manifest identifies an experiment precisely enough that resuming a
// journal written by any *different* experiment is refused. Digests are
// FNV-1a over a canonical serialization (DigestJSON).
type Manifest struct {
	Tool          string // producing command, e.g. "diag-fault"
	Seed          int64  // campaign base seed
	Jobs          int    // declared job count (0 when not known up front)
	ConfigDigest  uint64 // canonicalized configuration digest
	ProgramDigest uint64 // program/image digest (0 when generated)
	Note          string // human-readable identity, e.g. arch matrix
}

// diff describes the first field on which two manifests disagree ("" =
// equal).
func (m Manifest) diff(o Manifest) string {
	switch {
	case m.Tool != o.Tool:
		return fmt.Sprintf("tool %q vs %q", m.Tool, o.Tool)
	case m.Seed != o.Seed:
		return fmt.Sprintf("seed %d vs %d", m.Seed, o.Seed)
	case m.Jobs != o.Jobs:
		return fmt.Sprintf("job count %d vs %d", m.Jobs, o.Jobs)
	case m.ConfigDigest != o.ConfigDigest:
		return fmt.Sprintf("config digest %#x vs %#x", m.ConfigDigest, o.ConfigDigest)
	case m.ProgramDigest != o.ProgramDigest:
		return fmt.Sprintf("program digest %#x vs %#x", m.ProgramDigest, o.ProgramDigest)
	case m.Note != o.Note:
		return fmt.Sprintf("note %q vs %q", m.Note, o.Note)
	}
	return ""
}

// Failure is one recorded job failure.
type Failure struct {
	Class Class
	Msg   string
}

// SweepState is the recovered per-sweep progress: which jobs finished
// (with their serialized results), which failed, and which were started
// but never finished.
type SweepState struct {
	Ordinal int
	Jobs    int
	Label   string

	Done    map[int][]byte  // index -> result payload
	Failed  map[int]Failure // index -> last recorded failure
	started map[int]bool
}

// Wedged returns the indices (sorted) of jobs with a `started` record
// but no `done`/`failed`: in flight at the moment the process died.
// After a hard kill these identify the wedging program or trial.
func (s *SweepState) Wedged() []int {
	var out []int
	for i := range s.started {
		if _, ok := s.Done[i]; ok {
			continue
		}
		if _, ok := s.Failed[i]; ok {
			continue
		}
		out = append(out, i)
	}
	sortInts(out)
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// State is everything recovered from a journal file.
type State struct {
	Manifest Manifest
	Sweeps   []*SweepState
}

// CountDone returns completed and total job counts across all sweeps
// (total 0 when no sweep declared its size).
func (s *State) CountDone() (done, total int) {
	for _, sw := range s.Sweeps {
		done += len(sw.Done)
		total += sw.Jobs
	}
	return done, total
}

// Failures returns the distinct failure classes recorded across all
// sweeps, in class order.
func (s *State) Failures() []Class {
	var have [numClasses]bool
	for _, sw := range s.Sweeps {
		for _, f := range sw.Failed {
			if int(f.Class) < numClasses {
				have[f.Class] = true
			}
		}
	}
	var out []Class
	for c := 0; c < numClasses; c++ {
		if have[c] {
			out = append(out, Class(c))
		}
	}
	return out
}

// DigestBytes returns the FNV-1a-64 digest of b — the hash every
// journal digest field uses.
func DigestBytes(b []byte) uint64 { return wire.FNV1a(wire.FNVBasis, b) }

// DigestJSON canonicalizes v via encoding/json (fixed field order for
// structs) and digests the bytes. Values that cannot marshal fall back
// to their %#v rendering, so the digest is always defined.
func DigestJSON(v any) uint64 {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%#v", v))
	}
	return DigestBytes(b)
}

// appendRecord frames one record (kind, the wire encoding of the
// pointer rec, trailer digest) onto b.
func appendRecord(b []byte, kind uint8, rec any) ([]byte, error) {
	payload, err := wire.Append(nil, rec)
	if err != nil {
		return nil, err
	}
	start := len(b)
	b, err = wire.Append(b, &frame{Kind: kind, Payload: payload})
	return wire.Seal(b, start), err
}

// Scan recovers the longest valid record prefix of b. It returns the
// recovered state and the prefix length in bytes; a torn or corrupt
// tail simply ends the prefix. The error is non-nil only when the file
// is unusable as a journal: missing/wrong schema, or no valid manifest
// record. Scan never panics on arbitrary input.
func Scan(b []byte) (*State, int, error) {
	if len(b) < len(Schema) || string(b[:len(Schema)]) != Schema {
		return nil, 0, fmt.Errorf("%w: missing %q schema header", ErrFormat, Schema)
	}
	st := &State{}
	haveManifest := false
	off := len(Schema)
	for {
		var f frame
		n, err := wire.Decode(b[off:], &f)
		if err != nil || !wire.Sealed(b[off:], n) {
			break // a torn tail, bit rot or a torn trailer
		}
		if !st.apply(f.Kind, f.Payload, &haveManifest) {
			break // structurally sound but semantically invalid
		}
		off += n + 8
	}
	if !haveManifest {
		return nil, 0, fmt.Errorf("%w: no valid manifest record", ErrFormat)
	}
	return st, off, nil
}

// apply folds one digest-verified record into the state; false rejects
// it (ending the valid prefix).
func (st *State) apply(kind uint8, payload []byte, haveManifest *bool) bool {
	// decode fills rec from the whole payload.
	decode := func(rec any) bool {
		n, err := wire.Decode(payload, rec)
		return err == nil && n == len(payload)
	}
	switch kind {
	case kindManifest:
		var r manifestRecord
		if *haveManifest || !decode(&r) {
			return false // a second manifest can only be garbage
		}
		st.Manifest = Manifest{
			Tool: r.Tool, Seed: r.Seed, Jobs: int(r.Jobs),
			ConfigDigest: r.ConfigDigest, ProgramDigest: r.ProgramDigest, Note: r.Note,
		}
		*haveManifest = true
		return true
	case kindSweep:
		var r sweepRecord
		if !*haveManifest || !decode(&r) {
			return false
		}
		ordinal, jobs := int(r.Ordinal), int(r.Jobs)
		// Re-begun sweeps (a resumed resume) repeat their record; it
		// must agree with the first one.
		if ordinal < len(st.Sweeps) {
			sw := st.Sweeps[ordinal]
			return ordinal == len(st.Sweeps)-1 && sw.Jobs == jobs && sw.Label == r.Label
		}
		if ordinal != len(st.Sweeps) {
			return false // sweeps are strictly sequential
		}
		st.Sweeps = append(st.Sweeps, &SweepState{
			Ordinal: ordinal, Jobs: jobs, Label: r.Label,
			Done: map[int][]byte{}, Failed: map[int]Failure{}, started: map[int]bool{},
		})
		return true
	case kindStarted:
		var r jobRecord
		if !decode(&r) {
			return false
		}
		sw, i := st.job(r)
		if sw == nil {
			return false
		}
		sw.started[i] = true
		return true
	case kindDone:
		var r doneRecord
		if !decode(&r) || DigestBytes(r.Result) != r.ResultDigest {
			return false
		}
		sw, i := st.job(r.Job)
		if sw == nil {
			return false
		}
		sw.Done[i] = r.Result
		delete(sw.Failed, i) // a later success supersedes a failure
		return true
	case kindFailed:
		var r failedRecord
		if !decode(&r) || int(r.Class) >= numClasses {
			return false
		}
		sw, i := st.job(r.Job)
		if sw == nil {
			return false
		}
		if _, done := sw.Done[i]; !done {
			sw.Failed[i] = Failure{Class: r.Class, Msg: r.Msg}
		}
		return true
	}
	return false // unknown kind
}

// job resolves a per-job record's (sweep, index); nil when either is
// out of range.
func (st *State) job(r jobRecord) (*SweepState, int) {
	ordinal, i := int(r.Sweep), int(r.Index)
	if ordinal >= len(st.Sweeps) {
		return nil, 0
	}
	sw := st.Sweeps[ordinal]
	if sw.Jobs > 0 && i >= sw.Jobs {
		return nil, 0
	}
	return sw, i
}

// Journal is an open, append-only journal file. All methods are safe
// for concurrent use; every append is fsync'd before it returns, so a
// record the caller saw succeed survives any crash.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	manifest Manifest
	prior    []*SweepState // recovered sweeps (nil for a fresh journal)
	begun    int           // sweeps begun by this process
	closed   bool
}

// Create starts a fresh journal at path, truncating any existing file,
// and durably writes the schema header and manifest record.
func Create(path string, m Manifest) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, path: path, manifest: m}
	b, err := appendRecord([]byte(Schema), kindManifest, &manifestRecord{
		Tool: m.Tool, Seed: m.Seed, Jobs: uint32(m.Jobs),
		ConfigDigest: m.ConfigDigest, ProgramDigest: m.ProgramDigest, Note: m.Note,
	})
	if err == nil {
		err = j.write(b)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// Resume reopens an existing journal for a campaign identified by want.
// It recovers the longest valid record prefix (truncating a torn tail
// in place), refuses a manifest that does not match want — resuming a
// different experiment would silently violate determinism — and returns
// the journal positioned for appending plus the recovered state.
func Resume(path string, want Manifest) (*Journal, *State, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	st, valid, err := Scan(b)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if d := st.Manifest.diff(want); d != "" {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s was written by a different campaign (%s)", ErrMismatch, path, d)
	}
	if valid < len(b) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, path: path, manifest: st.Manifest, prior: st.Sweeps}, st, nil
}

// Path returns the journal's file path (for banners and hints).
func (j *Journal) Path() string { return j.path }

// write appends b and fsyncs. Callers hold no lock for Create's first
// write; the per-record paths lock around it.
func (j *Journal) write(b []byte) error {
	if j.closed {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", j.path, err)
	}
	return nil
}

// appendLocked appends one record under the journal's lock; callers
// that already hold it use writeRecord.
func (j *Journal) appendLocked(kind uint8, rec any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeRecord(kind, rec)
}

// writeRecord frames rec as a kind record and appends it.
func (j *Journal) writeRecord(kind uint8, rec any) error {
	b, err := appendRecord(nil, kind, rec)
	if err != nil {
		return err
	}
	return j.write(b)
}

// Sweep is the journal's handle for one exp.Run: it carries the prior
// progress to replay and appends this run's per-job records.
type Sweep struct {
	j       *Journal
	ordinal int
	prior   *SweepState // nil when the sweep is fresh
}

// BeginSweep opens the next sweep (one per exp.Run, strictly
// sequential). On a fresh journal it appends the sweep record; on
// resume it validates the job count and label against the recorded
// sweep — a mismatch means the resumed process was invoked with
// different parameters and is refused.
func (j *Journal) BeginSweep(jobs int, label string) (*Sweep, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ordinal := j.begun
	j.begun++
	if ordinal < len(j.prior) {
		p := j.prior[ordinal]
		if p.Jobs != jobs || p.Label != label {
			return nil, fmt.Errorf("%w: sweep %d was recorded as %d jobs (%q), resumed as %d jobs (%q)",
				ErrMismatch, ordinal, p.Jobs, p.Label, jobs, label)
		}
		return &Sweep{j: j, ordinal: ordinal, prior: p}, nil
	}
	if err := j.writeRecord(kindSweep, &sweepRecord{Ordinal: uint32(ordinal), Jobs: uint32(jobs), Label: label}); err != nil {
		return nil, err
	}
	return &Sweep{j: j, ordinal: ordinal}, nil
}

// Prior returns the journaled result payload of job i, if it completed
// in a previous run of this sweep.
func (s *Sweep) Prior(i int) ([]byte, bool) {
	if s.prior == nil {
		return nil, false
	}
	b, ok := s.prior.Done[i]
	return b, ok
}

// Wedged returns the jobs of this sweep that a previous run started but
// never finished (see SweepState.Wedged).
func (s *Sweep) Wedged() []int {
	if s.prior == nil {
		return nil
	}
	return s.prior.Wedged()
}

// Started durably records that job i is about to run.
func (s *Sweep) Started(i int) error {
	return s.j.appendLocked(kindStarted, s.jobRecord(i))
}

// Done durably records job i's serialized result.
func (s *Sweep) Done(i int, result []byte) error {
	return s.j.appendLocked(kindDone, &doneRecord{Job: *s.jobRecord(i), ResultDigest: DigestBytes(result), Result: result})
}

// Failed durably records job i's failure with its taxonomy class.
func (s *Sweep) Failed(i int, err error) error {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return s.j.appendLocked(kindFailed, &failedRecord{Job: *s.jobRecord(i), Class: Classify(err), Msg: msg})
}

// jobRecord names job i of this sweep on the wire.
func (s *Sweep) jobRecord(i int) *jobRecord {
	return &jobRecord{Sweep: uint32(s.ordinal), Index: uint32(i)}
}

// Close flushes and closes the journal file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
