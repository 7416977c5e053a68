package journal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diag/internal/diagerr"
)

// testManifest is the campaign identity used across these tests.
var testManifest = Manifest{
	Tool:          "diag-test",
	Seed:          42,
	Jobs:          4,
	ConfigDigest:  DigestJSON(map[string]int{"sites": 3}),
	ProgramDigest: DigestBytes([]byte("image")),
	Note:          "diag,ooo",
}

// buildJournal writes a journal via the public API and returns its path.
func buildJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := Create(path, testManifest)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	sw, err := j.BeginSweep(4, "trials")
	if err != nil {
		t.Fatalf("BeginSweep: %v", err)
	}
	for _, step := range []func() error{
		func() error { return sw.Started(0) },
		func() error { return sw.Done(0, []byte(`{"ok":true}`)) },
		func() error { return sw.Started(1) },
		func() error { return sw.Failed(1, diagerr.Wrap(diagerr.ErrTimeout, "trial 1 timed out")) },
		func() error { return sw.Started(2) }, // wedged: no done/failed
	} {
		if err := step(); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	path := buildJournal(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, n, err := Scan(b)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != len(b) {
		t.Fatalf("Scan consumed %d of %d bytes", n, len(b))
	}
	if st.Manifest != testManifest {
		t.Fatalf("manifest = %+v, want %+v", st.Manifest, testManifest)
	}
	if len(st.Sweeps) != 1 {
		t.Fatalf("got %d sweeps, want 1", len(st.Sweeps))
	}
	sw := st.Sweeps[0]
	if sw.Ordinal != 0 || sw.Jobs != 4 || sw.Label != "trials" {
		t.Fatalf("sweep = %+v", sw)
	}
	if got := string(sw.Done[0]); got != `{"ok":true}` {
		t.Fatalf("done payload = %q", got)
	}
	if f := sw.Failed[1]; f.Class != ClassTimeout || f.Msg != "trial 1 timed out" {
		t.Fatalf("failure = %+v", f)
	}
	if got := sw.Wedged(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("wedged = %v, want [2]", got)
	}
	if done, total := st.CountDone(); done != 1 || total != 4 {
		t.Fatalf("CountDone = %d/%d, want 1/4", done, total)
	}
	if got := st.Failures(); !reflect.DeepEqual(got, []Class{ClassTimeout}) {
		t.Fatalf("Failures = %v", got)
	}
}

func TestResume(t *testing.T) {
	path := buildJournal(t)
	j, st, err := Resume(path, testManifest)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	// The resumed sweep replays prior progress and accepts new records.
	sw, err := j.BeginSweep(4, "trials")
	if err != nil {
		t.Fatalf("BeginSweep on resume: %v", err)
	}
	if _, ok := sw.Prior(0); !ok {
		t.Fatal("job 0 should have a prior result")
	}
	if _, ok := sw.Prior(1); ok {
		t.Fatal("failed job 1 must not replay as done")
	}
	if got := sw.Wedged(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("wedged = %v, want [2]", got)
	}
	if err := sw.Started(2); err != nil {
		t.Fatalf("Started after resume: %v", err)
	}
	if err := sw.Done(2, []byte("late")); err != nil {
		t.Fatalf("Done after resume: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A second resume sees the merged history.
	_, st2, err := Resume(path, testManifest)
	if err != nil {
		t.Fatalf("second Resume: %v", err)
	}
	if got := string(st2.Sweeps[0].Done[2]); got != "late" {
		t.Fatalf("post-resume done payload = %q", got)
	}
	if len(st.Sweeps[0].Done) != 1 || len(st2.Sweeps[0].Done) != 2 {
		t.Fatalf("done counts = %d then %d, want 1 then 2",
			len(st.Sweeps[0].Done), len(st2.Sweeps[0].Done))
	}
}

func TestResumeMismatch(t *testing.T) {
	path := buildJournal(t)
	for name, m := range map[string]Manifest{
		"tool":   {Tool: "diag-bench", Seed: 42, Jobs: 4, ConfigDigest: testManifest.ConfigDigest, ProgramDigest: testManifest.ProgramDigest, Note: testManifest.Note},
		"seed":   {Tool: "diag-test", Seed: 7, Jobs: 4, ConfigDigest: testManifest.ConfigDigest, ProgramDigest: testManifest.ProgramDigest, Note: testManifest.Note},
		"jobs":   {Tool: "diag-test", Seed: 42, Jobs: 9, ConfigDigest: testManifest.ConfigDigest, ProgramDigest: testManifest.ProgramDigest, Note: testManifest.Note},
		"config": {Tool: "diag-test", Seed: 42, Jobs: 4, ConfigDigest: 1, ProgramDigest: testManifest.ProgramDigest, Note: testManifest.Note},
	} {
		if _, _, err := Resume(path, m); !errors.Is(err, ErrMismatch) {
			t.Errorf("Resume with different %s: err = %v, want ErrMismatch", name, err)
		}
	}
	// A resumed sweep invoked with different parameters is refused too.
	j, _, err := Resume(path, testManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.BeginSweep(5, "trials"); !errors.Is(err, ErrMismatch) {
		t.Errorf("BeginSweep with different job count: err = %v, want ErrMismatch", err)
	}
}

func TestResumeTruncatesTornTail(t *testing.T) {
	path := buildJournal(t)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record of garbage at the tail.
	torn := append(append([]byte(nil), whole...), kindDone, 0xff, 0xff)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _, err := Resume(path, testManifest)
	if err != nil {
		t.Fatalf("Resume over torn tail: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(whole) {
		t.Fatalf("Resume left %d bytes, want tail truncated back to %d", len(got), len(whole))
	}
}

// TestScanCorruption pins the longest-valid-prefix recovery contract
// across the ways a journal gets damaged in practice.
func TestScanCorruption(t *testing.T) {
	path := buildJournal(t)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wholeState, _, err := Scan(whole)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: schema, then each appended record's end offset.
	bounds := []int{len(Schema)}
	for off := len(Schema); off < len(whole); {
		plen := int(uint32(whole[off+1]) | uint32(whole[off+2])<<8 | uint32(whole[off+3])<<16 | uint32(whole[off+4])<<24)
		off += 1 + 4 + plen + 8 // kind, length, payload, digest
		bounds = append(bounds, off)
	}
	if bounds[len(bounds)-1] != len(whole) {
		t.Fatalf("record walk ended at %d, file is %d bytes", bounds[len(bounds)-1], len(whole))
	}
	// buildJournal appends manifest + sweep + 5 job records = 7 records.
	if len(bounds) != 8 {
		t.Fatalf("expected 7 records, found %d", len(bounds)-1)
	}

	tests := []struct {
		name    string
		mutate  func([]byte) []byte
		prefix  int  // expected valid prefix (byte offset)
		wantErr bool // Scan must reject the whole file
	}{
		{"intact", func(b []byte) []byte { return b }, len(whole), false},
		{"torn mid-record", func(b []byte) []byte { return b[:bounds[4]+3] }, bounds[4], false},
		{"torn in trailer digest", func(b []byte) []byte { return b[:bounds[5]-2] }, bounds[4], false},
		{"bit flip in payload", func(b []byte) []byte { b[bounds[2]+7] ^= 0x40; return b }, bounds[2], false},
		{"bit flip in digest", func(b []byte) []byte { b[bounds[3]-1] ^= 0x01; return b }, bounds[2], false},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }, len(whole), false},
		{"giant length field", func(b []byte) []byte {
			return append(b, kindDone, 0xff, 0xff, 0xff, 0xff)
		}, len(whole), false},
		{"truncated schema", func(b []byte) []byte { return b[:len(Schema)-3] }, 0, true},
		{"wrong schema", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "diag-journal/v9")
			return c
		}, 0, true},
		{"empty", func(b []byte) []byte { return nil }, 0, true},
		{"manifest only then noise", func(b []byte) []byte {
			return append(b[:bounds[1]], 0x00, 0x01)
		}, bounds[1], false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), whole...))
			st, n, err := Scan(b)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Scan accepted unusable input (prefix %d)", n)
				}
				return
			}
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if n != tc.prefix {
				t.Fatalf("valid prefix = %d, want %d", n, tc.prefix)
			}
			// The recovered prefix must itself scan to the same state.
			st2, n2, err := Scan(b[:n])
			if err != nil || n2 != n {
				t.Fatalf("rescan of prefix: n=%d err=%v", n2, err)
			}
			if !statesEqual(st, st2) {
				t.Fatal("rescan of valid prefix diverged")
			}
			if n == len(whole) && !statesEqual(st, wholeState) {
				t.Fatal("full-prefix scan diverged from pristine scan")
			}
		})
	}
}

// TestScanSemanticRejects covers records that decode but violate journal
// semantics: they end the valid prefix rather than corrupting state.
func TestScanSemanticRejects(t *testing.T) {
	rec := func(b []byte, kind uint8, r any) []byte {
		out, err := appendRecord(b, kind, r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	manifest := &manifestRecord{Tool: "t", Seed: 1, Jobs: 2}
	base := rec([]byte(Schema), kindManifest, manifest)
	sweep := func(b []byte, ordinal uint32) []byte {
		return rec(b, kindSweep, &sweepRecord{Ordinal: ordinal, Jobs: 2})
	}

	tests := []struct {
		name string
		add  func(b []byte) []byte
	}{
		{"second manifest", func(b []byte) []byte {
			return rec(b, kindManifest, manifest)
		}},
		{"sweep ordinal skips ahead", func(b []byte) []byte {
			return sweep(b, 1)
		}},
		{"job before any sweep", func(b []byte) []byte {
			return rec(b, kindStarted, &jobRecord{})
		}},
		{"job index out of range", func(b []byte) []byte {
			return rec(sweep(b, 0), kindStarted, &jobRecord{Index: 2})
		}},
		{"done with bad result digest", func(b []byte) []byte {
			return rec(sweep(b, 0), kindDone, &doneRecord{ResultDigest: 12345, Result: []byte("x")}) // not the digest of "x"
		}},
		{"failed with unknown class", func(b []byte) []byte {
			return rec(sweep(b, 0), kindFailed, &failedRecord{Class: 99, Msg: "boom"})
		}},
		{"unknown record kind", func(b []byte) []byte {
			return rec(b, 0x7f, &struct{}{})
		}},
		{"record with trailing payload bytes", func(b []byte) []byte {
			return rec(b, kindStarted, &struct {
				Job   jobRecord
				Extra uint8
			}{Extra: 0xcc})
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			good := append([]byte(nil), base...)
			b := tc.add(append([]byte(nil), base...))
			st, n, err := Scan(b)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			// The invalid record (and anything after) is outside the
			// prefix; valid records appended before it still count.
			if n >= len(b) {
				t.Fatalf("invalid record accepted: prefix %d of %d", n, len(b))
			}
			if n < len(good) {
				t.Fatalf("prefix %d lost the valid manifest (%d bytes)", n, len(good))
			}
			if st.Manifest.Tool != "t" {
				t.Fatalf("manifest lost: %+v", st.Manifest)
			}
		})
	}
}

// TestGolden pins the v1 wire format: the committed journal must decode
// to this exact state, and re-encoding the same records must reproduce
// the committed bytes. If this fails after an encoder change, the schema
// needed a version bump instead.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "v1.journal"))
	if err != nil {
		t.Fatalf("missing golden (run with -run TestGolden -golden to regenerate): %v", err)
	}
	got := goldenBytes(t)
	if string(got) != string(want) {
		t.Fatalf("golden journal drifted: %d bytes generated vs %d committed\n"+
			"the diag-journal/v1 encoding must not change; bump the schema version instead",
			len(got), len(want))
	}
	st, n, err := Scan(want)
	if err != nil || n != len(want) {
		t.Fatalf("Scan(golden): n=%d err=%v", n, err)
	}
	if st.Manifest.Tool != "diag-fault" || st.Manifest.Seed != 99 {
		t.Fatalf("golden manifest = %+v", st.Manifest)
	}
	sw := st.Sweeps[0]
	if len(sw.Done) != 2 || string(sw.Done[1]) != `{"Outcome":"masked"}` {
		t.Fatalf("golden done set = %v", sw.Done)
	}
	if sw.Failed[2].Class != ClassStalled {
		t.Fatalf("golden failure = %+v", sw.Failed[2])
	}
	if got := sw.Wedged(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("golden wedged = %v", got)
	}
}

// goldenBytes builds the golden journal's byte stream from fixed
// inputs, through the same record structs the journal writes.
func goldenBytes(t testing.TB) []byte {
	b := []byte(Schema)
	add := func(kind uint8, rec any) {
		var err error
		if b, err = appendRecord(b, kind, rec); err != nil {
			t.Fatal(err)
		}
	}
	add(kindManifest, &manifestRecord{Tool: "diag-fault", Seed: 99, Jobs: 4, ConfigDigest: 0x1234, ProgramDigest: 0x5678, Note: "hotspot"})
	add(kindSweep, &sweepRecord{Ordinal: 0, Jobs: 4, Label: "trials"})
	done := func(idx uint32, result string) {
		add(kindDone, &doneRecord{Job: jobRecord{Index: idx}, ResultDigest: DigestBytes([]byte(result)), Result: []byte(result)})
	}
	add(kindStarted, &jobRecord{Index: 0})
	done(0, `{"Outcome":"ok"}`)
	add(kindStarted, &jobRecord{Index: 1})
	done(1, `{"Outcome":"masked"}`)
	add(kindStarted, &jobRecord{Index: 2})
	add(kindFailed, &failedRecord{Job: jobRecord{Index: 2}, Class: ClassStalled, Msg: "watchdog: no architectural progress"})
	add(kindStarted, &jobRecord{Index: 3})
	return b
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassOther},
		{errors.New("divergence"), ClassOther},
		{diagerr.Wrap(diagerr.ErrTimeout, "slow"), ClassTimeout},
		{diagerr.Wrap(diagerr.ErrStalled, "wedged"), ClassStalled},
		{diagerr.Wrap(diagerr.ErrPanic, "boom"), ClassPanic},
		{diagerr.Wrap(diagerr.ErrBadProgram, "bad"), ClassBadProgram},
		{diagerr.Wrap(diagerr.ErrMaxCycles, "budget"), ClassBudget},
		{diagerr.Wrap(diagerr.ErrMaxInstructions, "budget"), ClassBudget},
		{context.Canceled, ClassCanceled},
		{fmt.Errorf("wrapped: %w", context.Canceled), ClassCanceled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	for c, transient := range map[Class]bool{
		ClassOther: false, ClassTimeout: true, ClassStalled: true,
		ClassPanic: true, ClassBadProgram: false, ClassBudget: false,
		ClassCanceled: false,
	} {
		if c.Transient() != transient {
			t.Errorf("%v.Transient() = %v, want %v", c, c.Transient(), transient)
		}
	}
	if Class(200).String() != "class(200)" || ClassTimeout.String() != "timeout" {
		t.Error("Class.String misrendered")
	}
}

func statesEqual(a, b *State) bool {
	if a.Manifest != b.Manifest || len(a.Sweeps) != len(b.Sweeps) {
		return false
	}
	for i := range a.Sweeps {
		x, y := a.Sweeps[i], b.Sweeps[i]
		if x.Ordinal != y.Ordinal || x.Jobs != y.Jobs || x.Label != y.Label {
			return false
		}
		if !reflect.DeepEqual(x.Done, y.Done) || !reflect.DeepEqual(x.Failed, y.Failed) ||
			!reflect.DeepEqual(x.started, y.started) {
			return false
		}
	}
	return true
}
